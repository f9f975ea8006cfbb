"""Equivalence of the CPU fast paths with their reference implementations.

The hot-loop optimisations (the integer Morton interleave, memoized
geometry, columnar bucket filtering, region-threaded splitting) are
pure re-expressions: every one must be *bit-identical* to the
straightforward string/naive code it replaces.  These property tests
drive randomized workloads in 1–4 dimensions through both paths and
compare exactly — no tolerance, no sorting-away of order differences.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import InvalidLabelError
from repro.common.geometry import (
    Region,
    region_of_label,
    unit_region,
)
from repro.common.labels import (
    candidate_string,
    coordinate_bits,
    interleave,
    packed_interleave,
    root_label,
    split_dimension,
)
from repro.core import codec
from repro.core.bucket import LeafBucket
from repro.core.naming import (
    naming_function_recursive,
    packed_naming_function,
)
from repro.core.records import Record
from repro.core.store import ColumnarStore, Rows
from repro.core.split import (
    DataAwareSplit,
    ThresholdSplit,
    partition_records,
)
from tests.conftest import (
    brute_force_range,
    labels_strategy,
    points_strategy,
    random_tree_leaves,
)

DIMS = [1, 2, 3, 4]


def dims_and_label():
    """Strategy: (dims, random valid non-virtual-root label), dims 1–4."""
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda dims: st.tuples(st.just(dims), labels_strategy(dims, 16))
    )


def dims_and_point():
    """Strategy: (dims, random point in [0,1)^dims), dims 1–4."""
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda dims: st.tuples(st.just(dims), points_strategy(dims))
    )


# ----------------------------------------------------------------------
# The integer Morton kernel vs its per-character oracle
# ----------------------------------------------------------------------


class TestPackedLabelOps:
    @given(dims_and_point(), st.integers(min_value=0, max_value=24))
    def test_interleave_matches_coordinate_bits(self, dims_point, depth):
        dims, point = dims_point
        # Reference: assemble the Morton string one coordinate-bit at a
        # time.
        per_dim = -(-depth // dims)
        expansions = [coordinate_bits(value, per_dim) for value in point]
        expected = "".join(
            expansions[position][index]
            for index in range(per_dim)
            for position in range(dims)
        )[:depth]
        assert packed_interleave(point, depth) == (
            int(expected, 2) if expected else 0,
            depth,
        )
        assert interleave(point, depth) == expected

    @given(dims_and_point(), st.integers(min_value=0, max_value=24))
    def test_candidate_matches_root_plus_interleave(self, dims_point, depth):
        dims, point = dims_point
        assert candidate_string(point, depth) == (
            root_label(dims) + interleave(point, depth)
        )

    # packed_naming_function has no caller under src/; it is pinned by
    # perf/spans.py until ROADMAP item 1(a) re-points that kernel row.
    @given(dims_and_label())
    def test_packed_naming_matches_recursive_definition(self, dims_label):
        dims, label = dims_label
        name = naming_function_recursive(label, dims)
        assert packed_naming_function((int(label, 2), len(label)), dims) == (
            int(name, 2),
            len(name),
        )

    @pytest.mark.parametrize("dims", DIMS)
    def test_packed_naming_rejects_all_agreeing_labels(self, dims):
        # A label whose every bit equals the bit m back has no
        # disagreement — structurally impossible for valid labels.
        with pytest.raises(InvalidLabelError):
            packed_naming_function((0, dims), dims)  # the virtual root


# ----------------------------------------------------------------------
# Memoized geometry vs a manual split walk
# ----------------------------------------------------------------------


class TestMemoizedGeometry:
    @staticmethod
    def walk_region(label: str, dims: int) -> Region:
        """Reference: derive the cell by splitting from the unit region
        one edge bit at a time (the pre-memoization implementation)."""
        region = unit_region(dims)
        for index, bit in enumerate(label[dims + 1 :]):
            lower, upper = region.split(index % dims)
            region = upper if bit == "1" else lower
        return region

    @given(dims_and_label())
    def test_region_of_label_matches_walk(self, dims_label):
        dims, label = dims_label
        assert region_of_label(label, dims) == self.walk_region(label, dims)

    @given(dims_and_label())
    def test_bucket_region_cache_matches_walk(self, dims_label):
        dims, label = dims_label
        bucket = LeafBucket(label, dims)
        assert bucket.region == self.walk_region(label, dims)
        # Cached object is stable across calls.
        assert bucket.region is bucket.region


# ----------------------------------------------------------------------
# Columnar filtering vs the naive scan, across mutations
# ----------------------------------------------------------------------


def _random_records(rng, region, dims, count):
    records = []
    for index in range(count):
        key = tuple(
            rng.uniform(low, high)
            for low, high in zip(region.lows, region.highs)
        )
        # Clamp away the (measure-zero but possible) high endpoint.
        key = tuple(
            min(value, high * (1 - 1e-12))
            for value, high in zip(key, region.highs)
        )
        records.append(Record(key, index))
    return records


def _random_query(rng, dims):
    bounds = [sorted((rng.random(), rng.random())) for _ in range(dims)]
    return Region(
        tuple(low for low, _ in bounds), tuple(high for _, high in bounds)
    )


STORE_BACKENDS = ["columnar", "numpy"]


class TestColumnarMatching:
    @pytest.mark.parametrize("dims", DIMS)
    def test_matches_naive_across_random_workloads(self, dims, rng):
        for trial in range(10):
            leaves = random_tree_leaves(rng, dims, max_depth=6)
            label = rng.choice(leaves)
            bucket = LeafBucket(label, dims)
            for record in _random_records(
                rng, bucket.region, dims, rng.randrange(0, 120)
            ):
                bucket.add(record)
            for _ in range(8):
                query = _random_query(rng, dims)
                assert bucket.matching(query) == bucket.matching_naive(query)

    @pytest.mark.parametrize("dims", DIMS)
    def test_matches_naive_after_mutations(self, dims, rng):
        bucket = LeafBucket(root_label(dims), dims)
        pool = _random_records(rng, bucket.region, dims, 150)
        for record in pool[:100]:
            bucket.add(record)
        query = _random_query(rng, dims)
        assert bucket.matching(query) == bucket.matching_naive(query)
        # Interleave adds, removes and queries; the lazily rebuilt
        # store must track every mutation.
        for step in range(30):
            if rng.random() < 0.5 and bucket.records:
                bucket.remove(rng.choice(bucket.records))
            else:
                bucket.add(pool[100 + step % 50])
            query = _random_query(rng, dims)
            assert bucket.matching(query) == bucket.matching_naive(query)

    @pytest.mark.parametrize("kind", ["columnar", "numpy"])
    def test_generation_counter_invalidates_equal_count_swap(self, kind):
        # Regression for the old count backstop: remove one record and
        # add a different one — the count is unchanged, so a store
        # keyed on count would keep serving the stale snapshot.  The
        # generation counter bumps on *every* mutation.
        bucket = LeafBucket(root_label(2), 2, store=kind)
        old = Record((0.25, 0.25), "old")
        keeper = Record((0.75, 0.75), "keeper")
        bucket.add(old)
        bucket.add(keeper)
        everything = Region((0.0, 0.0), (1.0, 1.0))
        assert bucket.matching(everything) == [old, keeper]
        generation = bucket.store.generation
        new = Record((0.5, 0.5), "new")
        bucket.remove(old)
        bucket.add(new)
        assert bucket.load == 2  # equal count: the backstop's blind spot
        assert bucket.store.generation == generation + 2
        assert bucket.matching(everything) == [keeper, new]
        assert bucket.matching(everything) == bucket.matching_naive(everything)

    @pytest.mark.parametrize("kind", STORE_BACKENDS)
    @pytest.mark.parametrize("valued", [False, True], ids=["keys", "values"])
    @pytest.mark.parametrize("dims", DIMS)
    def test_decoded_store_matches_naive_through_mutations(
        self, kind, valued, dims, rng
    ):
        """A store born from codec bytes (its column form) through
        interleaved adds (with and without payloads), removes and
        queries — one query or two per generation, so both the column
        scan and the snapshot answer —
        against a model list and against the naive scan of its own
        re-encoded bytes: keys, payloads and insertion order."""
        region = unit_region(dims)
        pool = _random_records(rng, region, dims, 160)
        if not valued:
            pool = [Record(record.key) for record in pool]
        model = pool[:80]
        bucket = codec.decode_bucket(codec.encode_bucket(
            LeafBucket(root_label(dims), dims, model, store=kind)
        ))
        model = list(model)
        for step in range(40):
            if rng.random() < 0.25:  # a remove left records: refetch
                bucket = codec.decode_bucket(codec.encode_bucket(bucket))
            roll = rng.random()
            if roll < 0.15 and model:
                victim = rng.choice(model)
                model.remove(victim)
                assert bucket.remove(victim)
            elif roll < 0.6:
                # Payloads or None whatever the bucket held so far.
                key = pool[80 + step % 80].key
                record = Record(key, step if rng.random() < 0.5 else None)
                model.append(record)
                bucket.add(record)
            for _ in range(rng.choice((1, 2))):
                query = _random_query(rng, dims)
                expected = [
                    record
                    for record in model
                    if query.contains_point_closed(record.key)
                ]
                assert bucket.matching(query) == expected
            twin = codec.decode_bucket(codec.encode_bucket(bucket))
            assert twin.matching_naive(query) == expected
            assert twin.records == model

    @pytest.mark.parametrize("dims", DIMS)
    def test_positions_are_insertion_ordered(self, dims, rng):
        # Sorted on the last dimension, answered in insertion order.
        records = _random_records(rng, unit_region(dims), dims, 80)
        store = ColumnarStore(dims, dims - 1, records)
        query = _random_query(rng, dims)
        assert store.matching(query.lows, query.highs) == [
            record
            for record in records
            if query.contains_point_closed(record.key)
        ]

    def test_empty_store(self):
        store = ColumnarStore(2, 0)
        assert store.matching((0.0, 0.0), (1.0, 1.0)) == []


# ----------------------------------------------------------------------
# Record-store backends vs the naive scan, across dims and overlays
# ----------------------------------------------------------------------


class TestStoreBackendEquivalence:
    """Every registered backend is a bit-identical re-expression of the
    naive record list — at the bucket level across 1–4 dimensions, and
    end-to-end through every overlay."""

    @pytest.mark.parametrize("kind", STORE_BACKENDS)
    @pytest.mark.parametrize("dims", DIMS)
    def test_bucket_matching_identical_to_list_store(self, kind, dims, rng):
        for _ in range(6):
            leaves = random_tree_leaves(rng, dims, max_depth=6)
            label = rng.choice(leaves)
            inserted = _random_records(
                rng, region_of_label(label, dims), dims, rng.randrange(0, 120)
            )
            bucket = LeafBucket(label, dims, store=kind)
            for record in inserted:
                bucket.add(record)
            for _ in range(6):
                query = _random_query(rng, dims)
                got = bucket.matching(query)
                assert got == bucket.matching_naive(query)
                # Insertion order, not just set equality.
                assert got == [
                    record
                    for record in inserted
                    if query.contains_point_closed(record.key)
                ]

    @pytest.mark.parametrize("kind", STORE_BACKENDS)
    @pytest.mark.parametrize("valued", [False, True], ids=["keys", "values"])
    @pytest.mark.parametrize("dims", DIMS)
    def test_decoded_bucket_matching_identical_to_list_store(
        self, kind, valued, dims, rng
    ):
        for _ in range(6):
            label = rng.choice(random_tree_leaves(rng, dims, max_depth=6))
            inserted = _random_records(
                rng, region_of_label(label, dims), dims, rng.randrange(0, 120)
            )
            if not valued:
                inserted = [Record(record.key) for record in inserted]
            data = codec.encode_bucket(
                LeafBucket(label, dims, inserted, store=kind)
            )
            for _ in range(6):
                query = _random_query(rng, dims)
                expected = [
                    record
                    for record in inserted
                    if query.contains_point_closed(record.key)
                ]
                # A fresh decode per query: the column scan answers.
                assert codec.decode_bucket(data).matching(query) == expected
            bucket = codec.decode_bucket(data)
            for _ in range(3):  # one bucket: scan, then snapshot
                query = _random_query(rng, dims)
                assert bucket.matching(query) == bucket.matching_naive(query)

    @pytest.mark.parametrize("kind", STORE_BACKENDS)
    @pytest.mark.parametrize("overlay", ["chord", "kademlia", "pastry"])
    def test_index_answers_identical_across_overlays(
        self, kind, overlay, rng
    ):
        from repro.common.config import IndexConfig
        from repro.core.index import MLightIndex
        from repro.runtime import RuntimeConfig, create_dht

        points = [
            tuple(rng.random() for _ in range(2)) for _ in range(250)
        ]
        queries = [_random_query(rng, 2) for _ in range(8)]

        def answers(store_kind):
            config = IndexConfig(
                dims=2, split_threshold=25, merge_threshold=12,
                store=store_kind,
            )
            dht = create_dht(
                RuntimeConfig(kind="sim", overlay=overlay, n_peers=6)
            )
            index = MLightIndex(dht, config)
            index.insert_many(points)
            return [
                [r.key for r in index.range_query(
                    (q.lows, q.highs)
                ).records]
                for q in queries
            ]

        got = answers(kind)
        for query, records in zip(queries, got):
            assert sorted(records) == brute_force_range(points, query)
        # Same order too, whichever backend filtered the buckets.
        assert got == answers(STORE_BACKENDS[0])


class TestByteMatch:
    """A leaf that is still its codec bytes answers its first match from
    them (:func:`repro.core.codec.match_encoded`), with no store built:
    the same records in the same order as the naive scan and as the
    resident store of its kind."""

    @staticmethod
    def _check(records, label, dims, kind, queries, store_builds):
        resident = LeafBucket(label, dims, records, store=kind)
        data = codec.encode_bucket(resident)
        for query in queries:
            store_builds.clear()
            got = codec.decode_bucket(data).matching(query)
            assert store_builds == []
            assert got == resident.matching_naive(query)
            assert got == resident.matching(query)
            assert got == [
                record
                for record in records
                if query.contains_point_closed(record.key)
            ]

    @staticmethod
    def _face_queries(rng, records, dims):
        """Boxes whose faces are stored coordinates: two records' keys
        as opposite corners (both on the boundary), and one key as a
        degenerate box — only closed compares keep them."""
        queries = []
        for _ in range(4):
            a, b = rng.choice(records).key, rng.choice(records).key
            queries.append(Region(
                tuple(map(min, a, b)), tuple(map(max, a, b))
            ))
        key = rng.choice(records).key
        queries.append(Region(key, key))
        return queries

    @pytest.mark.parametrize("kind", STORE_BACKENDS)
    @pytest.mark.parametrize("valued", [False, True], ids=["keys", "values"])
    @pytest.mark.parametrize("dims", DIMS)
    def test_matches_naive_and_resident_store(
        self, kind, valued, dims, rng, store_builds
    ):
        for _ in range(5):
            label = rng.choice(random_tree_leaves(rng, dims, max_depth=6))
            region = region_of_label(label, dims)
            records = _random_records(
                rng, region, dims, rng.randrange(1, 120)
            )
            if not valued:
                records = [Record(record.key) for record in records]
            queries = [_random_query(rng, dims) for _ in range(5)]
            queries += self._face_queries(rng, records, dims)
            queries.append(unit_region(dims))  # every record a hit
            self._check(records, label, dims, kind, queries, store_builds)

    @pytest.mark.parametrize("kind", STORE_BACKENDS)
    @pytest.mark.parametrize("dims", DIMS)
    def test_empty_leaf_and_zero_hits(self, kind, dims, rng, store_builds):
        label = root_label(dims) + "0"
        region = region_of_label(label, dims)
        outside = Region(  # the other half of the space
            tuple(0.75 if dim == 0 else 0.0 for dim in range(dims)),
            tuple(1.0 for _ in range(dims)),
        )
        self._check([], label, dims, kind, [unit_region(dims)], store_builds)
        records = _random_records(rng, region, dims, 40)
        assert not any(outside.contains_point_closed(r.key) for r in records)
        self._check(records, label, dims, kind, [outside], store_builds)


# ----------------------------------------------------------------------
# Region-threaded splitting vs label-derived regions
# ----------------------------------------------------------------------


class TestSplitRegionThreading:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_partition_records_region_argument_is_equivalent(self, dims, rng):
        leaves = random_tree_leaves(rng, dims, max_depth=5)
        for label in leaves:
            region = region_of_label(label, dims)
            records = _random_records(rng, region, dims, 30)
            assert partition_records(label, dims, records) == (
                partition_records(label, dims, records, region)
            )

    @pytest.mark.parametrize("kind", STORE_BACKENDS)
    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize(
        "strategy",
        [ThresholdSplit(8), DataAwareSplit(6)],
        ids=["threshold", "data-aware"],
    )
    def test_plans_from_columns_equal_plans_from_records(
        self, kind, dims, strategy, rng
    ):
        """The insert path plans a fetched leaf's split over its
        columns: same leaves, same rows in the same order, payloads
        aligned, as planning over its record list."""
        for trial in range(10):
            label = root_label(dims) + "".join(
                rng.choice("01") for _ in range(rng.randrange(0, 6))
            )
            records = _random_records(
                rng, region_of_label(label, dims), dims, 40
            )
            if trial % 2:
                records = [Record(record.key) for record in records]
            store = codec.decode_bucket(codec.encode_bucket(
                LeafBucket(label, dims, records, store=kind)
            )).store
            columns = store.rows_or_records()
            assert isinstance(columns, Rows)
            by_columns = strategy.plan_split(label, columns, dims, 12)
            by_records = strategy.plan_split(label, records, dims, 12)
            if by_records is None:
                assert by_columns is None
                continue
            assert [leaf for leaf, _ in by_columns.leaves] == [
                leaf for leaf, _ in by_records.leaves
            ]
            for (leaf, rows), (_, leaf_records) in zip(
                by_columns.leaves, by_records.leaves
            ):
                rebuilt = LeafBucket(leaf, dims, rows, store=kind)
                assert rebuilt.records == list(leaf_records)

    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize(
        "strategy",
        [ThresholdSplit(8), DataAwareSplit(6)],
        ids=["threshold", "data-aware"],
    )
    def test_plans_match_label_derived_reference(self, dims, strategy, rng):
        """Plans equal a reference that re-derives every cell by label.

        The reference recursion partitions with ``region=None`` at every
        level — exactly what the code did before regions were threaded
        through — so any drift introduced by incremental midpoints
        (`Region.split`) would show up as a differing plan.
        """

        def reference(label, records, depth_cap):
            dim = split_dimension(label, dims)
            region = region_of_label(label, dims)
            midpoint = (region.lows[dim] + region.highs[dim]) / 2.0
            lower = [r for r in records if r.key[dim] < midpoint]
            upper = [r for r in records if r.key[dim] >= midpoint]
            return lower, upper

        for trial in range(10):
            label = root_label(dims) + "".join(
                rng.choice("01") for _ in range(rng.randrange(0, 6))
            )
            records = _random_records(
                rng, region_of_label(label, dims), dims, 40
            )
            plan = strategy.plan_split(label, records, dims, max_depth=12)
            if plan is None:
                continue
            # Every plan leaf holds exactly the records the by-label
            # partition chain assigns to it.
            for leaf_label, leaf_records in plan.leaves:
                chain_records = list(records)
                for end in range(len(label), len(leaf_label)):
                    prefix = leaf_label[:end]
                    lower, upper = reference(prefix, chain_records, None)
                    chain_records = (
                        upper if leaf_label[end] == "1" else lower
                    )
                assert list(leaf_records) == chain_records
