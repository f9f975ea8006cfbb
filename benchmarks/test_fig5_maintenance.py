"""Figs. 5a-5d — index maintenance cost.

The module fixtures regenerate the paper's four maintenance curves
(tables under ``results/``) and assert their qualitative shape: the
data-size sweep against ``check_fig5``, the one statement of the
Fig. 5a/5b claims; the theta sweep against the pair of claims only
this benchmark states.
"""

import pytest

from repro.experiments.harness import load_index
from repro.experiments.report import check_fig5

from .conftest import assert_claims, publish


@pytest.fixture(scope="module")
def datasize_series(dataset):
    series = publish("fig5ab", dataset)
    assert_claims(check_fig5(series))
    return series


@pytest.fixture(scope="module")
def threshold_series(dataset):
    series = publish("fig5cd", dataset)
    by_name = {entry.scheme: entry for entry in series}
    # Fig. 5c/5d shapes: m-LIGHT/PHT movement roughly flat in theta;
    # DST's movement falls for small thresholds (early saturation).
    dst = by_name["dst"]
    assert dst.records_moved[0] < dst.records_moved[-1]
    mlight = by_name["mlight"]
    spread = max(mlight.lookups) / max(1, min(mlight.lookups))
    assert spread < 2.0  # "insensitive to the value of theta_split"
    return series


@pytest.mark.parametrize("scheme", ["mlight", "pht", "dst"])
def test_fig5_insert_cost(dataset, paper_config, scheme,
                          datasize_series, threshold_series):
    """One more insert (lookup + possible split) on a warm index."""
    warmup = dataset[:-1][:4000]
    index = load_index(scheme, paper_config, warmup)
    index.insert(dataset[-1])
    assert index.total_records() == len(warmup) + 1
