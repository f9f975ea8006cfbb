"""Tests for the PHT baseline."""

import random

import pytest

from repro.common.config import IndexConfig
from repro.common.geometry import Region
from repro.baselines.pht import PhtIndex
from repro.core.store import ColumnarStore
from repro.datasets.synthetic import uniform_points
from repro.dht.api import PUT, REWRITE
from repro.dht.localhash import LocalDht
from tests.conftest import brute_force_range


def small_config(**overrides):
    defaults = dict(
        dims=2, max_depth=16, split_threshold=6, merge_threshold=3
    )
    defaults.update(overrides)
    return IndexConfig(**defaults)


def make_index(**overrides):
    return PhtIndex(LocalDht(16), small_config(**overrides))


class TestTrieStructure:
    def test_bootstrap_root_leaf(self):
        index = make_index()
        root = index.dht.peek(index._key(""))
        assert root.is_leaf
        assert root.prefix == ""

    def test_internal_nodes_hold_no_data(self):
        rng = random.Random(0)
        index = make_index()
        for _ in range(100):
            index.insert((rng.random(), rng.random()))
        internals = [
            value
            for key, value in index.dht.items()
            if key.startswith("pht:") and not value.is_leaf
        ]
        assert internals  # splits happened
        assert all(node.bucket.is_empty for node in internals)

    def test_leaves_respect_threshold(self):
        rng = random.Random(1)
        index = make_index()
        for _ in range(200):
            index.insert((rng.random(), rng.random()))
        for leaf in index.leaves():
            assert leaf.load <= index._config.split_threshold

    def test_leaf_linked_list_is_curve_ordered(self):
        rng = random.Random(2)
        index = make_index()
        for _ in range(300):
            index.insert((rng.random(), rng.random()))
        leaves = {leaf.prefix: leaf for leaf in index.leaves()}
        heads = [p for p, leaf in leaves.items() if leaf.prev_leaf is None]
        assert len(heads) == 1
        chain = []
        cursor = heads[0]
        while cursor is not None:
            chain.append(cursor)
            cursor = leaves[cursor].next_leaf
        assert len(chain) == len(leaves)
        assert chain == sorted(chain)  # z-order = lexicographic


class TestLookup:
    def test_lookup_finds_covering_leaf(self):
        rng = random.Random(3)
        index = make_index()
        points = [(rng.random(), rng.random()) for _ in range(150)]
        for point in points:
            index.insert(point)
        from repro.common.geometry import region_of_bits

        for point in points[:30]:
            leaf, probes = index.lookup(point)
            assert region_of_bits(leaf.prefix, 2).contains_point(point)
            assert probes <= 6  # binary search over <=17 lengths


class TestMaintenance:
    def test_split_moves_all_records(self):
        """Unlike m-LIGHT, both PHT children change DHT keys."""
        index = make_index(split_threshold=4)
        points = [(x, y) for x in (0.1, 0.6) for y in (0.1, 0.6)]
        for point in points:
            index.insert(point)
        moved_before = index.dht.stats.records_moved
        index.insert((0.3, 0.3))  # fifth record triggers the split
        split_movement = index.dht.stats.records_moved - moved_before - 1
        assert split_movement == 5  # every record moved

    def test_delete_and_merge(self):
        rng = random.Random(4)
        index = make_index()
        points = [(rng.random(), rng.random()) for _ in range(200)]
        for point in points:
            index.insert(point)
        grown = index.tree_size()
        for point in points[:190]:
            assert index.delete(point)
        assert index.total_records() == 10
        assert index.tree_size() < grown
        # Linked list still consistent after merges.
        leaves = {leaf.prefix: leaf for leaf in index.leaves()}
        heads = [p for p, leaf in leaves.items() if leaf.prev_leaf is None]
        assert len(heads) == 1

    def test_delete_absent_returns_false(self):
        index = make_index()
        assert not index.delete((0.5, 0.5))


class TestRangeQuery:
    @pytest.mark.parametrize("store", ["columnar", "numpy"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed, store):
        rng = random.Random(seed)
        index = make_index(store=store)
        points = [(rng.random(), rng.random()) for _ in range(300)]
        for point in points:
            index.insert(point)
        for _ in range(10):
            lows = (rng.random() * 0.7, rng.random() * 0.7)
            highs = (
                lows[0] + rng.random() * 0.3, lows[1] + rng.random() * 0.3
            )
            query = Region(lows, highs)
            result = index.range_query(query)
            assert sorted(r.key for r in result.records) == (
                brute_force_range(points, query)
            )

    def test_costs_include_internal_nodes(self):
        """PHT probes routing nodes, so lookups exceed leaves visited."""
        rng = random.Random(6)
        index = make_index()
        for _ in range(400):
            index.insert((rng.random(), rng.random()))
        result = index.range_query(Region((0.0, 0.0), (1.0, 1.0)))
        assert result.lookups > len(result.visited_leaves)


class TestLeafStore:
    def test_a_queried_leaf_keeps_one_store(self, store_builds, monkeypatch):
        """Insert-then-query into one region: each write lands in the
        leaf's one store, whose sorted run absorbs it; only the nodes a
        split writes build a store, and a new leaf sorts once."""
        sorts = []
        fresh_run = ColumnarStore._fresh_run

        def counting(store, keys, generation):
            sorts.append(store)
            return fresh_run(store, keys, generation)

        monkeypatch.setattr(ColumnarStore, "_fresh_run", counting)
        index = make_index(
            max_depth=28, split_threshold=100, merge_threshold=50
        )
        for point in uniform_points(2000, seed=8):
            index.insert(point)
        region = Region((0.40, 0.40), (0.45, 0.45))
        index.range_query(region)  # the region's leaves sort once
        before = {id(node) for _, node in index.dht.items()}
        written = {}  # the node objects the steps store, new ones only
        perform = index.dht.perform

        def recording(step):
            if step[0] in (PUT, REWRITE) and id(step[2]) not in before:
                written[id(step[2])] = step[2]
            return perform(step)

        monkeypatch.setattr(index.dht, "perform", recording)
        del store_builds[:], sorts[:]
        rng = random.Random(9)
        for _ in range(200):
            index.insert(
                (0.40 + rng.random() * 0.05, 0.40 + rng.random() * 0.05)
            )
            index.range_query(region)
        assert written  # the region's leaf split
        assert len(store_builds) <= len(written)
        assert len(sorts) <= len(written)
