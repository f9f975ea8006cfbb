"""Figs. 6a-6b — storage load balance of the splitting strategies.

Regenerates the threshold-vs-data-aware comparison and asserts the
paper's headline effect against ``check_fig6`` (data-aware splitting
produces fewer empty buckets and a bucket-load distribution no worse,
on trees of comparable size).
"""

import pytest

from repro.experiments.harness import load_index
from repro.experiments.report import check_fig6

from .conftest import assert_claims, publish


@pytest.fixture(scope="module")
def loadbalance_series(dataset):
    series = publish("fig6ab", dataset)
    assert_claims(check_fig6(series))
    return series


@pytest.mark.parametrize("scheme", ["mlight", "mlight-da"])
def test_fig6_strategy_insert_cost(dataset, paper_config, scheme,
                                   loadbalance_series):
    """One more insert under each splitting strategy (the data-aware
    one runs Algorithm 1 on every load change)."""
    warmup = dataset[:-1][:4000]
    index = load_index(scheme, paper_config, warmup)
    index.insert(dataset[-1])
    assert index.total_records() == len(warmup) + 1
