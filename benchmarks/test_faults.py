"""E12 table and the fault plane's contracts: recall and retry cost vs
injected fault rate, plus the zero-rate injection wrapper."""

import pytest

from repro.common.config import IndexConfig
from repro.core.index import MLightIndex
from repro.dht.faults import FaultPlan, FaultyDht
from repro.dht.localhash import LocalDht
from repro.dht.retry import RetryingDht
from repro.workloads.queries import uniform_range_queries

from .conftest import publish


@pytest.fixture(scope="module")
def fault_samples(dataset):
    samples = publish("e12", dataset)

    by_cell = {(s.replication, s.fault_rate): s for s in samples}
    # Zero faults, replication >= 2: the crash is repaired, nothing is
    # injected, and recall is exact.
    for replication in (2, 3):
        clean = by_cell[(replication, 0.0)]
        assert clean.recall == 1.0
        assert clean.faults_injected == 0
        assert clean.degraded == 0
        assert clean.retries == 0
    # Positive rates really inject, and the retry budget really pays:
    # retries and backoff grow with the rate.
    for replication in (1, 2, 3):
        hot = by_cell[(replication, 0.3)]
        assert hot.faults_injected > 0
        assert hot.retries > 0
        assert hot.backoff_waits > 0
        assert hot.retries >= by_cell[(replication, 0.1)].retries
    return samples


@pytest.mark.smoke
def test_e12_fault_recall_table(fault_samples):
    """Range queries through the full resilience stack (fault plane +
    retries) — the E12 hot path — degrade instead of raising."""
    config = IndexConfig(
        dims=2, max_depth=14, split_threshold=20, merge_threshold=10
    )
    faulty = FaultyDht(LocalDht(16), FaultPlan(3, drop_rate=0.15))
    dht = RetryingDht(faulty, attempts=3, backoff_base=0.01)
    index = MLightIndex(dht, config)
    from repro.datasets.synthetic import uniform_points

    with faulty.suspended():
        for point in uniform_points(2000, dims=2, seed=4):
            index.insert(point)
    for query in uniform_range_queries(32, 0.2, dims=2, seed=5):
        index.range_query(query)
    assert faulty.stats.faults_injected > 0


@pytest.mark.smoke
def test_zero_rate_plan_injects_nothing(dataset):
    """A zero-rate plan answers every query completely."""
    config = IndexConfig(
        dims=2, max_depth=14, split_threshold=20, merge_threshold=10
    )
    faulty = FaultyDht(LocalDht(16), FaultPlan(0))
    index = MLightIndex(RetryingDht(faulty), config)
    for point in dataset[:2000]:
        index.insert(point)
    for query in uniform_range_queries(32, 0.2, dims=2, seed=6):
        assert index.range_query(query).complete
    assert faulty.stats.faults_injected == 0
