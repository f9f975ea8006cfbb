"""Tests for load-balance statistics and cost metering."""

import pytest

from repro.common.errors import ReproError
from repro.core.bucket import LeafBucket
from repro.core.records import Record
from repro.dht.localhash import LocalDht
from repro.metrics.loadbalance import (
    empty_bucket_fraction,
    gini_coefficient,
    load_variance,
    normalized_load_variance,
    peer_record_loads,
)
from repro.obs.registry import MetricsRegistry


class TestVariance:
    def test_uniform_loads_zero_variance(self):
        assert load_variance([5, 5, 5, 5]) == 0.0
        assert normalized_load_variance([5, 5, 5]) == 0.0

    def test_known_value(self):
        assert load_variance([0, 10]) == 25.0
        assert normalized_load_variance([0, 10]) == 1.0

    def test_scale_invariance_of_normalized(self):
        loads = [1, 2, 3, 4]
        scaled = [10, 20, 30, 40]
        assert normalized_load_variance(loads) == pytest.approx(
            normalized_load_variance(scaled)
        )

    def test_all_zero_loads(self):
        assert normalized_load_variance([0, 0, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            load_variance([])
        with pytest.raises(ReproError):
            normalized_load_variance([])


class TestGini:
    def test_perfect_equality(self):
        assert gini_coefficient([3, 3, 3]) == pytest.approx(0.0)

    def test_total_inequality_approaches_one(self):
        value = gini_coefficient([0] * 99 + [100])
        assert value > 0.9

    def test_all_zero(self):
        assert gini_coefficient([0, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            gini_coefficient([])


class TestEmptyBuckets:
    def test_fraction(self):
        buckets = [LeafBucket("001", 2), LeafBucket("001", 2)]
        buckets[0].add(Record((0.5, 0.5)))
        assert empty_bucket_fraction(buckets) == 0.5

    def test_no_buckets_rejected(self):
        with pytest.raises(ReproError):
            empty_bucket_fraction([])


class TestPeerLoads:
    def test_counts_records_per_peer(self):
        dht = LocalDht(4)
        bucket = LeafBucket("001", 2)
        bucket.add(Record((0.5, 0.5)))
        bucket.add(Record((0.6, 0.6)))
        dht.put("ml:00", bucket)
        dht.put("other:x", "not a bucket")
        loads = peer_record_loads(dht)
        assert sum(loads) == 2
        assert len(loads) == 4


class TestCostMeter:
    """Phase metering is ``MetricsRegistry.snapshot()`` / ``delta()``."""

    def metered(self):
        dht = LocalDht(4)
        registry = MetricsRegistry()
        registry.register("dht", dht.stats)
        return dht, registry

    def test_measures_increments(self):
        dht, registry = self.metered()
        dht.put("warmup", 1)
        before = registry.snapshot()
        dht.put("a", 1, records_moved=3)
        dht.get("a")
        delta = registry.delta(before)
        assert delta["dht.lookups"] == 2
        assert delta["dht.puts"] == 1
        assert delta["dht.gets"] == 1
        assert delta["dht.records_moved"] == 3

    def test_deltas_add(self):
        """Consecutive phases' deltas sum to the whole span's delta."""
        dht, registry = self.metered()
        start = registry.snapshot()
        dht.put("a", 1, records_moved=2)
        middle = registry.snapshot()
        first = registry.delta(start)
        dht.get("a")
        dht.remove("a", records_moved=2)
        second = registry.delta(middle)
        whole = registry.delta(start)
        assert whole == {key: first[key] + second[key] for key in whole}
        assert whole["dht.lookups"] == 3
