"""The range decomposition's closed forms against their per-level oracles.

``compute_lca`` (and PHT's trie entry point) take the longest common
prefix of the query corners' Morton codes in one pass; the oracle is
the per-level descent they replaced (``tests/conftest.py``:
``lca_bits_by_descent``).  ``branch_subqueries`` walks once from the
target down to the leaf; the oracle clips the subquery to every branch
node's own cell.  Both sides must agree exactly — same labels, same
bounds down to the sign of a zero, same order — on seeded random
queries whose faces also sit on dyadic split planes, on 0.0 and 1.0,
one ulp off a plane, and on degenerate (zero-width) boxes.
"""

import math
import random

import pytest

from repro.baselines.pht import PhtIndex
from repro.common.config import IndexConfig
from repro.common.geometry import Region, clip, query_lca_bits, region_of_label
from repro.common.labels import root_label
from repro.core.rangequery import branch_subqueries, compute_lca
from repro.dht.api import GET
from repro.dht.localhash import LocalDht
from tests.conftest import branch_subqueries_by_clip, lca_bits_by_descent

DEPTHS = (1, 3, 8, 20, 28)

#: Queries per (dims, max_depth) pair: 4 x 5 x 2 500 = 50 000 in all.
QUERIES_PER_CASE = 2500


def face(rng: random.Random) -> float:
    """One query face in [0, 1], biased towards the boundary cases."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.random()
    if kind == 1:  # on a dyadic split plane, 0.0 and 1.0 included
        level = rng.randint(0, 30)
        return rng.randint(0, 1 << level) / (1 << level)
    if kind == 2:
        return rng.choice((0.0, 1.0))
    if kind == 3:  # one ulp off a split plane
        level = rng.randint(1, 30)
        plane = rng.randint(0, 1 << level) / (1 << level)
        off = math.nextafter(plane, rng.choice((0.0, 1.0)))
        return min(1.0, max(0.0, off))
    if kind == 4:  # near the origin or the global face
        tiny = rng.random() ** 12
        return tiny if rng.random() < 0.5 else 1.0 - tiny
    return rng.randint(0, 1000) / 1000


def random_query(rng: random.Random, dims: int) -> Region:
    lows, highs = [], []
    for _ in range(dims):
        low = face(rng)
        high = low if rng.random() < 0.2 else face(rng)
        if high < low:
            low, high = high, low
        lows.append(low)
        highs.append(high)
    return Region(tuple(lows), tuple(highs))


def exact(branches):
    """Branches with every bound in its repr, so 0.0 and -0.0 differ."""
    return [
        (label, repr(region.lows), repr(region.highs))
        for label, region in branches
    ]


class TestClosedFormLca:
    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_depth", DEPTHS)
    def test_equals_the_per_level_descent(self, dims, max_depth):
        rng = random.Random(1000 * dims + max_depth)
        root = root_label(dims)
        for _ in range(QUERIES_PER_CASE):
            query = random_query(rng, dims)
            expected = root + lca_bits_by_descent(query, dims, max_depth)
            assert compute_lca(query, dims, max_depth) == expected, query

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_named_cases(self, dims):
        whole = Region((0.0,) * dims, (1.0,) * dims)
        root = root_label(dims)
        # The whole space and the global upper corner.
        assert compute_lca(whole, dims, 28) == root
        corner = Region((1.0,) * dims, (1.0,) * dims)
        assert compute_lca(corner, dims, 28) == root + "1" * 28
        # A point sits in one cell at every depth, so the LCA is capped.
        point = Region((0.3,) * dims, (0.3,) * dims)
        assert len(compute_lca(point, dims, 20)) == len(root) + 20
        # A face on a split plane belongs to the upper cell: a query
        # closing on 0.5 below it cannot descend into the lower half.
        halves = Region((0.0,) * dims, (0.5,) + (0.25,) * (dims - 1))
        assert compute_lca(halves, dims, 28) == root

    def test_bits_are_the_label_below_the_root(self):
        rng = random.Random(7)
        for dims in (1, 2, 3, 4):
            for _ in range(200):
                query = random_query(rng, dims)
                bits, length = query_lca_bits(query, 28)
                label = compute_lca(query, dims, 28)
                assert label[dims + 1:] == (
                    format(bits, f"0{length}b") if length else ""
                )


class TestBranchWalk:
    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_equals_clipping_every_branch_cell(self, dims):
        rng = random.Random(50 + dims)
        root = root_label(dims)
        for _ in range(2500):
            target = root + "".join(
                rng.choice("01") for _ in range(rng.randint(0, 10))
            )
            leaf = target + "".join(
                rng.choice("01") for _ in range(rng.randint(1, 14))
            )
            query = random_query(rng, dims)
            cell = region_of_label(target, dims)
            # As the engine sends it (clipped to the target's cell), the
            # whole cell, and unclipped.
            inside = clip(query, cell)
            for subquery in (inside, cell, query):
                if subquery is None:
                    continue
                got = branch_subqueries(leaf, target, subquery, dims)
                expected = branch_subqueries_by_clip(
                    leaf, target, subquery, dims
                )
                assert exact(got) == exact(expected), (leaf, target, subquery)

    def test_ancestor_or_self_leaf_has_no_branches(self):
        query = Region((0.1, 0.1), (0.9, 0.9))
        assert branch_subqueries("0011", "0011", query, 2) == []
        assert branch_subqueries("001", "00110", query, 2) == []


class _GetKeys(LocalDht):
    """Records the key of every ``GET`` request it exchanges."""

    def __init__(self, n_peers):
        super().__init__(n_peers)
        self.keys = []

    def exchange(self, peer, op, key, value=None):
        if op is GET:
            self.keys.append(key)
        return super().exchange(peer, op, key, value)


class TestPhtSharesTheKernel:
    def test_pht_enters_its_trie_at_the_mlight_lca_bits(self):
        dims, depth = 2, 16
        dht = _GetKeys(8)
        index = PhtIndex(
            dht,
            IndexConfig(
                dims=dims, max_depth=depth, split_threshold=4,
                merge_threshold=2,
            ),
        )
        rng = random.Random(3)
        for _ in range(300):
            index.insert((rng.random(), rng.random()))
        for _ in range(300):
            query = random_query(rng, dims)
            dht.keys.clear()
            index.range_query(query)
            lca = compute_lca(query, dims, depth)[dims + 1:]
            assert lca == lca_bits_by_descent(query, dims, depth)
            assert dht.keys[0] == "pht:" + lca

    def test_a_missing_lca_with_a_low_face_of_one_finds_its_leaf(self):
        """The point lookup behind a missing LCA node probes a point of
        the LCA cell in ``[0, 1)`` even when the query's low face is the
        space's high edge, and costs what any point of that cell does."""
        dims, depth = 2, 16
        index = PhtIndex(
            LocalDht(8),
            IndexConfig(
                dims=dims, max_depth=depth, split_threshold=4,
                merge_threshold=2,
            ),
        )
        rng = random.Random(3)
        for _ in range(300):
            index.insert((rng.random(), rng.random()))
        query = Region((1.0, 1.0), (1.0, 1.0))
        lca = compute_lca(query, dims, depth)[dims + 1:]
        assert index.dht.get("pht:" + lca) is None
        inside = (1.0 - 2.0 ** -10,) * dims  # in the depth-16 corner cell
        leaf, probes = index.lookup(inside)
        result = index.range_query(query)
        assert not result.records
        assert result.visited_leaves == {leaf.bucket.label}
        assert result.lookups == 1 + probes
