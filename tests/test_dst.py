"""Tests for the DST baseline."""

import random

import pytest

from repro.common.config import IndexConfig
from repro.common.geometry import Region, region_of_bits
from repro.baselines.dst import DstIndex
from repro.dht.localhash import LocalDht
from tests.conftest import brute_force_range


def small_config(**overrides):
    defaults = dict(
        dims=2, max_depth=10, split_threshold=8, merge_threshold=4
    )
    defaults.update(overrides)
    return IndexConfig(**defaults)


def make_index(saturation=None, **overrides):
    return DstIndex(LocalDht(16), small_config(**overrides), saturation)


class TestReplication:
    def test_record_stored_on_whole_path(self):
        index = make_index(saturation=100)
        index.insert((0.3, 0.7), "v")
        depth = index._depth
        stored_levels = sum(
            1
            for key, value in index.dht.items()
            if key.startswith("dst:") and value.load
        )
        assert stored_levels == depth + 1

    def test_insert_cost_scales_with_depth(self):
        index = make_index(saturation=100)
        before = index.dht.stats.lookups
        index.insert((0.3, 0.7))
        assert index.dht.stats.lookups - before >= index._depth + 1

    def test_saturation_caps_replication(self):
        index = make_index(saturation=3)
        rng = random.Random(0)
        for _ in range(50):
            index.insert((rng.random(), rng.random()))
        root = index.dht.peek(index._key(""))
        assert root.saturated
        assert root.load == 3
        assert index.total_records() == 50
        assert index.replica_count() < 50 * (index._depth + 1)

    def test_smaller_saturation_moves_less_data(self):
        """The Fig. 5d effect: early saturation cuts replication."""
        rng = random.Random(1)
        points = [(rng.random(), rng.random()) for _ in range(200)]
        small = make_index(saturation=2)
        large = make_index(saturation=200)
        for point in points:
            small.insert(point)
            large.insert(point)
        assert small.dht.stats.records_moved < large.dht.stats.records_moved


class TestDelete:
    def test_delete_removes_all_replicas(self):
        index = make_index(saturation=100)
        index.insert((0.3, 0.7), "v")
        assert index.delete((0.3, 0.7), "v")
        assert index.replica_count() == 0
        assert not index.delete((0.3, 0.7), "v")


class TestDecomposition:
    @pytest.mark.parametrize("seed", range(5))
    def test_canonical_cover_is_disjoint_and_exact(self, seed):
        rng = random.Random(seed)
        index = make_index()
        lows = (rng.random() * 0.7, rng.random() * 0.7)
        highs = (lows[0] + rng.random() * 0.3, lows[1] + rng.random() * 0.3)
        query = Region(lows, highs)
        out: list[str] = []
        index._decompose(query, "", region_of_bits("", 2), out)
        # Disjoint: no prefix relation between any two canonical cells.
        for a in out:
            for b in out:
                if a != b:
                    assert not b.startswith(a)
        # Exact: cells tile the query up to leaf resolution.
        from repro.common.geometry import clip

        total = 0.0
        for prefix in out:
            cell = region_of_bits(prefix, 2)
            piece = clip(query, cell)
            assert piece is not None
        # Every interior point of the query is covered by some cell.
        for _ in range(50):
            point = tuple(
                low + rng.random() * (high - low)
                for low, high in zip(query.lows, query.highs)
            )
            assert any(
                region_of_bits(prefix, 2).contains_point(point)
                for prefix in out
            )


class TestRangeQuery:
    @pytest.mark.parametrize("store", ["columnar", "numpy"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed, store):
        rng = random.Random(seed)
        index = make_index(saturation=5, store=store)  # force saturation descents
        points = [(rng.random(), rng.random()) for _ in range(250)]
        for point in points:
            index.insert(point)
        for _ in range(8):
            lows = (rng.random() * 0.7, rng.random() * 0.7)
            highs = (
                lows[0] + rng.random() * 0.3, lows[1] + rng.random() * 0.3
            )
            query = Region(lows, highs)
            result = index.range_query(query)
            assert sorted(r.key for r in result.records) == (
                brute_force_range(points, query)
            )

    def test_unsaturated_query_is_one_round(self):
        index = make_index(saturation=10_000)
        rng = random.Random(7)
        for _ in range(100):
            index.insert((rng.random(), rng.random()))
        result = index.range_query(Region((0.2, 0.2), (0.4, 0.4)))
        assert result.rounds == 1

    def test_saturated_query_needs_more_rounds(self):
        index = make_index(saturation=2)
        rng = random.Random(8)
        for _ in range(300):
            index.insert((rng.random(), rng.random()))
        result = index.range_query(Region((0.05, 0.05), (0.95, 0.95)))
        assert result.rounds > 1

    def test_bandwidth_exceeds_mlight(self):
        """DST's virtual-depth fragmentation: far more lookups than
        there are data-bearing cells."""
        index = make_index()
        rng = random.Random(9)
        for _ in range(100):
            index.insert((rng.random(), rng.random()))
        result = index.range_query(Region((0.1, 0.1), (0.6, 0.6)))
        assert result.lookups > 50
