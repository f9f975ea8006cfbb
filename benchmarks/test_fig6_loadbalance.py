"""Figs. 6a-6b — storage load balance of the splitting strategies.

Regenerates the threshold-vs-data-aware comparison and asserts the
paper's headline effect against ``check_fig6`` (data-aware splitting
produces fewer empty buckets and a bucket-load distribution no worse,
on trees of comparable size).
"""

import pytest

from repro.experiments import fig6
from repro.experiments.harness import build_index
from repro.experiments.report import check_fig6

from .conftest import assert_claims, publish


@pytest.fixture(scope="module")
def loadbalance_series(dataset, paper_config):
    series = fig6.run_loadbalance_experiment(
        dataset, paper_config, n_samples=6
    )
    publish("fig6ab_load_balance.txt", fig6.render(series))
    assert_claims(check_fig6(series))
    return series


@pytest.mark.parametrize("scheme", ["mlight", "mlight-da"])
def test_fig6_strategy_insert_cost(dataset, paper_config, scheme,
                                   loadbalance_series):
    """One more insert under each splitting strategy (the data-aware
    one runs Algorithm 1 on every load change)."""
    index = build_index(scheme, paper_config)
    warmup = dataset[:-1][:4000]
    for point in warmup:
        index.insert(point)
    index.insert(dataset[-1])
    assert index.total_records() == len(warmup) + 1
