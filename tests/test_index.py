"""Integration and property tests for the MLightIndex facade."""

import random

import pytest
from repro.common.config import IndexConfig
from repro.common.errors import InvalidPointError
from repro.common.geometry import Region
from repro.core.index import MLightIndex
from repro.core.keys import bucket_key
from repro.core.naming import naming_function
from repro.core.split import DataAwareSplit
from repro.dht.localhash import LocalDht
from repro.obs.registry import MetricsRegistry
from tests.conftest import brute_force_range


def small_config(**overrides):
    defaults = dict(
        dims=2, max_depth=16, split_threshold=8,
        merge_threshold=4, expected_load=6,
    )
    defaults.update(overrides)
    return IndexConfig(**defaults)


def make_index(**overrides):
    return MLightIndex(LocalDht(16), small_config(**overrides))


class TestBootstrap:
    def test_starts_with_root_bucket(self):
        index = make_index()
        assert index.tree_size() == 1
        bucket = index.dht.peek(bucket_key("00"))
        assert bucket.label == "001"

    def test_attach_to_existing_index(self):
        dht = LocalDht(16)
        first = MLightIndex(dht, small_config())
        first.insert((0.5, 0.5), "v")
        second = MLightIndex(dht, small_config())
        assert second.total_records() == 1
        assert second.exact_match((0.5, 0.5))[0].value == "v"


class TestInsertLookup:
    def test_insert_and_exact_match(self):
        index = make_index()
        index.insert((0.25, 0.75), "hello")
        matches = index.exact_match((0.25, 0.75))
        assert [record.value for record in matches] == ["hello"]

    def test_duplicate_keys_all_kept(self):
        index = make_index()
        index.insert((0.5, 0.5), "a")
        index.insert((0.5, 0.5), "b")
        assert {r.value for r in index.exact_match((0.5, 0.5))} == {"a", "b"}

    def test_rejects_out_of_range_key(self):
        index = make_index()
        with pytest.raises(InvalidPointError):
            index.insert((1.2, 0.5))

    def test_insert_many_forms(self):
        from repro.core.records import Record

        index = make_index()
        count = index.insert_many(
            [
                (0.1, 0.1),
                ((0.2, 0.2), "pair"),
                Record((0.3, 0.3), "record"),
            ]
        )
        assert count == 3
        assert index.total_records() == 3

    def test_splits_grow_the_tree(self):
        rng = random.Random(1)
        index = make_index()
        for _ in range(100):
            index.insert((rng.random(), rng.random()))
        assert index.tree_size() > 1
        index.check_invariants()
        for bucket in index.buckets():
            assert bucket.load <= index.config.split_threshold


class TestIncrementalSplitCosts:
    def test_split_transfers_one_child_only(self):
        """Theorem 5 in action: a clean two-way split costs one routed
        put carrying ~half the records."""
        index = make_index(split_threshold=8, max_depth=16)
        # Spread across both halves so the split is one level.
        points = [
            (x, y)
            for x in (0.1, 0.5, 0.9)
            for y in (0.1, 0.5, 0.9)
        ]
        for point in points[:8]:
            index.insert(point)
        registry = MetricsRegistry.for_index(index)
        before = registry.snapshot()
        index.insert(points[8])
        delta = registry.delta(before)
        # Insert itself moves one record; the split then puts one child.
        assert delta["dht.puts"] >= 1
        split_movement = delta["dht.records_moved"] - 1
        assert 0 < split_movement < 9

    def test_bucket_keys_follow_naming_function(self):
        rng = random.Random(2)
        index = make_index()
        for _ in range(200):
            index.insert((rng.random(), rng.random()))
        for key, value in index.dht.items():
            if key.startswith("ml:"):
                assert key == bucket_key(
                    naming_function(value.label, 2)
                )


class TestDelete:
    def test_delete_returns_false_when_absent(self):
        index = make_index()
        assert not index.delete((0.4, 0.4))

    def test_delete_by_value(self):
        index = make_index()
        index.insert((0.5, 0.5), "a")
        index.insert((0.5, 0.5), "b")
        assert index.delete((0.5, 0.5), "b")
        assert [r.value for r in index.exact_match((0.5, 0.5))] == ["a"]

    def test_merges_shrink_the_tree(self):
        rng = random.Random(3)
        index = make_index()
        points = [(rng.random(), rng.random()) for _ in range(300)]
        for point in points:
            index.insert(point)
        grown = index.tree_size()
        for point in points[:280]:
            assert index.delete(point)
        index.check_invariants()
        assert index.tree_size() < grown
        assert index.total_records() == 20

    def test_merge_transfers_one_bucket(self):
        index = make_index(split_threshold=4, merge_threshold=3)
        points = [(0.1, 0.1), (0.2, 0.2), (0.8, 0.8), (0.9, 0.9), (0.6, 0.4)]
        for point in points:
            index.insert(point)
        assert index.tree_size() > 1
        registry = MetricsRegistry.for_index(index)
        before = registry.snapshot()
        for point in points:
            index.delete(point)
        index.check_invariants()
        assert index.tree_size() == 1
        assert registry.delta(before)["dht.removes"] >= 1


class TestRangeQueries:
    @pytest.mark.parametrize("lookahead", [1, 2, 4])
    def test_matches_brute_force(self, lookahead):
        rng = random.Random(4)
        index = make_index()
        points = [(rng.random(), rng.random()) for _ in range(400)]
        for point in points:
            index.insert(point)
        for _ in range(15):
            lows = (rng.random() * 0.7, rng.random() * 0.7)
            highs = (lows[0] + rng.random() * 0.3, lows[1] + rng.random() * 0.3)
            query = Region(lows, highs)
            result = index.range_query(query, lookahead=lookahead)
            assert sorted(r.key for r in result.records) == (
                brute_force_range(points, query)
            )

    def test_after_deletions(self):
        rng = random.Random(5)
        index = make_index()
        points = [(rng.random(), rng.random()) for _ in range(300)]
        for point in points:
            index.insert(point)
        removed = points[:150]
        for point in removed:
            index.delete(point)
        survivors = points[150:]
        query = Region((0.1, 0.1), (0.9, 0.9))
        result = index.range_query(query)
        assert sorted(r.key for r in result.records) == (
            brute_force_range(survivors, query)
        )


class TestDataAwareIndex:
    def test_constructor(self):
        index = MLightIndex(
            LocalDht(16), small_config(strategy="data-aware")
        )
        assert isinstance(index.strategy, DataAwareSplit)

    def test_behaves_correctly_end_to_end(self):
        rng = random.Random(6)
        index = MLightIndex(
            LocalDht(16), small_config(strategy="data-aware")
        )
        points = [(rng.random() ** 2, rng.random()) for _ in range(400)]
        for point in points:
            index.insert(point)
        index.check_invariants()
        query = Region((0.0, 0.2), (0.4, 0.8))
        result = index.range_query(query)
        assert sorted(r.key for r in result.records) == (
            brute_force_range(points, query)
        )
        for point in points[:200]:
            assert index.delete(point)
        index.check_invariants()


class TestRandomizedWorkload:
    """Randomised insert/delete interleavings against a brute-force
    oracle, with invariants checked along the way."""

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_operations(self, seed):
        rng = random.Random(seed)
        index = make_index(split_threshold=5, merge_threshold=3)
        live: list[tuple] = []
        for step in range(400):
            if live and rng.random() < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                assert index.delete(victim)
            else:
                point = (rng.random(), rng.random())
                live.append(point)
                index.insert(point)
            if step % 100 == 99:
                index.check_invariants()
                assert index.total_records() == len(live)
        query = Region((0.2, 0.2), (0.8, 0.8))
        assert sorted(
            r.key for r in index.range_query(query).records
        ) == brute_force_range(live, query)


class TestThreeDimensional:
    def test_3d_end_to_end(self):
        rng = random.Random(9)
        config = IndexConfig(
            dims=3, max_depth=15, split_threshold=8, merge_threshold=4
        )
        index = MLightIndex(LocalDht(16), config)
        points = [
            (rng.random(), rng.random(), rng.random()) for _ in range(300)
        ]
        for point in points:
            index.insert(point)
        index.check_invariants()
        query = Region((0.1, 0.2, 0.0), (0.6, 0.9, 0.5))
        result = index.range_query(query)
        assert sorted(r.key for r in result.records) == (
            brute_force_range(points, query)
        )
