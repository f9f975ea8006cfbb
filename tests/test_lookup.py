"""Tests for the binary-search lookup (Section 5)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import IndexCorruptionError
from repro.common.labels import candidate_string, root_label, sibling
from repro.core.bucket import LeafBucket
from repro.core.cache import LeafCache
from repro.core.keys import bucket_key
from repro.core.lookup import PointLookupCursor, lookup_point, lookup_steps
from repro.core.naming import naming_function
from repro.dht.localhash import LocalDht
from tests.conftest import points_strategy, random_tree_leaves


def materialize_tree(leaves, dims, dht):
    """Store a bucket for every leaf at its name's key."""
    for leaf in leaves:
        dht.put(bucket_key(naming_function(leaf, dims)), LeafBucket(leaf, dims))


def covering_leaf(leaves, dims, point):
    """Oracle: the unique leaf whose cell contains the point."""
    from repro.common.geometry import region_of_label

    hits = [
        leaf
        for leaf in leaves
        if region_of_label(leaf, dims).contains_point(point)
    ]
    assert len(hits) == 1
    return hits[0]


class TestAgainstOracle:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_trees_random_points(self, dims, seed):
        rng = random.Random(seed)
        max_depth = 12
        leaves = random_tree_leaves(rng, dims, max_depth)
        dht = LocalDht(16)
        materialize_tree(leaves, dims, dht)
        for _ in range(30):
            point = tuple(rng.random() for _ in range(dims))
            result = lookup_point(dht, point, dims, max_depth)
            assert result.bucket.label == covering_leaf(leaves, dims, point)

    @given(points_strategy(2), st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_property_2d(self, point, seed):
        rng = random.Random(seed)
        leaves = random_tree_leaves(rng, 2, 10)
        dht = LocalDht(8)
        materialize_tree(leaves, 2, dht)
        result = lookup_point(dht, point, 2, 10)
        assert result.bucket.label == covering_leaf(leaves, 2, point)


def edge_coordinates(max_depth: int, dims: int):
    """One coordinate: 0.0, a dyadic split plane a cell of *max_depth*
    can have (and one level below the cap), one ulp below such a plane,
    the largest float below 1.0, or any value in ``[0, 1)``."""
    bits = -(-max_depth // dims) + 1
    plane = st.integers(1, bits).flatmap(
        lambda level: st.integers(0, (1 << (level - 1)) - 1).map(
            lambda k: (2 * k + 1) / (1 << level)
        )
    )
    return st.one_of(
        st.just(0.0),
        st.just(math.nextafter(1.0, 0.0)),
        plane,
        plane.map(lambda value: math.nextafter(value, 0.0)),
        st.floats(0.0, 1.0, exclude_max=True),
    )


class TestCoverageRule:
    """A leaf covers a point iff its label is a prefix of the point's
    candidate string: the lookup decides on labels, and this is the
    cell geometry's answer for every label from the root to the depth
    cap, at split planes and one ulp below them included."""

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_depth", [1, 3, 8, 28])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_prefix_of_the_candidate_is_the_cell_test(self, dims, max_depth, data):
        point = tuple(
            data.draw(edge_coordinates(max_depth, dims)) for _ in range(dims)
        )
        candidate = candidate_string(point, max_depth)
        root = root_label(dims)
        assert len(candidate) == len(root) + max_depth
        drawn = root + "".join(data.draw(st.lists(
            st.sampled_from("01"), max_size=max_depth
        )))
        labels = [drawn]
        for length in range(len(root), len(candidate) + 1):
            labels.append(candidate[:length])
            if length > len(root):
                labels.append(sibling(candidate[:length], dims))
        for label in labels:
            assert candidate.startswith(label) == LeafBucket(
                label, dims
            ).covers(point), (point, label)

        # The cursor decides by the same rule: on the tree that splits
        # down to ``target`` (every sibling on the way a leaf), the cold
        # search and a stale ancestor hint both end at ``target``.
        depth = data.draw(st.integers(0, max_depth))
        target = candidate[:len(root) + depth]
        leaves = [target] + [
            sibling(candidate[:length], dims)
            for length in range(len(root) + 1, len(target) + 1)
        ]
        dht = LocalDht(4)
        materialize_tree(leaves, dims, dht)
        assert covering_leaf(leaves, dims, point) == target
        assert lookup_point(dht, point, dims, max_depth).bucket.label == target
        cache = LeafCache()
        if depth:
            cache.observe(candidate[:len(root) + depth - 1])
        result = lookup_point(dht, point, dims, max_depth, cache=cache)
        assert result.bucket.label == target
        hits, stale = dht.stats.cache_hits, dht.stats.cache_stale
        result = lookup_point(dht, point, dims, max_depth, cache=cache)
        assert result.bucket.label == target and result.lookups == 1
        assert (dht.stats.cache_hits, dht.stats.cache_stale) == (hits + 1, stale)


class TestCostBounds:
    def test_singleton_tree_single_probe_range(self):
        dht = LocalDht(8)
        materialize_tree(["001"], 2, dht)
        result = lookup_point(dht, (0.3, 0.9), 2, 20)
        assert result.bucket.label == "001"
        assert result.lookups <= math.ceil(math.log2(21)) + 2

    @pytest.mark.parametrize("seed", range(6))
    def test_probe_count_at_most_candidates(self, seed):
        """Each probe strictly shrinks the interval, so probes never
        exceed the candidate-set size D+1."""
        rng = random.Random(seed)
        max_depth = 14
        leaves = random_tree_leaves(rng, 2, max_depth)
        dht = LocalDht(8)
        materialize_tree(leaves, 2, dht)
        for _ in range(20):
            point = (rng.random(), rng.random())
            result = lookup_point(dht, point, 2, max_depth)
            assert result.lookups <= max_depth + 1
            assert result.rounds == result.lookups

    def test_uniform_tree_probes_logarithmic(self):
        """On a full uniform tree the binary search meets its O(log D)
        promise."""
        depth = 8
        leaves = ["001" + format(i, f"0{depth}b") for i in range(2**depth)]
        dht = LocalDht(8)
        materialize_tree(leaves, 2, dht)
        rng = random.Random(1)
        worst = 0
        for _ in range(50):
            point = (rng.random(), rng.random())
            worst = max(
                worst, lookup_point(dht, point, 2, 28).lookups
            )
        assert worst <= math.ceil(math.log2(29)) + 3


class TestBoundedLookup:
    def test_max_label_length_restricts_search(self):
        rng = random.Random(0)
        leaves = random_tree_leaves(rng, 2, 10)
        dht = LocalDht(8)
        materialize_tree(leaves, 2, dht)
        point = (0.3, 0.7)
        target = covering_leaf(leaves, 2, point)
        cursor = PointLookupCursor(
            dht.stats, point, 2, 10,
            min_label_length=len(target),
            max_label_length=len(target),
        )
        dht.drive(lookup_steps(cursor))
        assert cursor.result.bucket.label == target
        assert cursor.result.lookups == 1


class TestFailures:
    def test_empty_dht_raises_corruption(self):
        dht = LocalDht(8)
        with pytest.raises(IndexCorruptionError):
            lookup_point(dht, (0.5, 0.5), 2, 10)

    def test_inconsistent_tree_detected(self):
        """A tree missing an entire subtree's buckets cannot resolve
        points of that subtree."""
        dht = LocalDht(8)
        # Leaves 0010* exist, but the 0011 side is missing entirely.
        materialize_tree(["00100", "00101"], 2, dht)
        with pytest.raises(IndexCorruptionError):
            lookup_point(dht, (0.9, 0.9), 2, 10)
