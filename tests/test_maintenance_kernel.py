"""The maintenance kernel, tested as what it is: pure code.

``split_homes`` / ``merge_homes`` (``core/naming.py``) state Theorem 5
once — which leaf of a split or merge keeps its key and where the
others go.  They take labels and return labels; the drivers around
them (``MLightIndex._apply_split`` / ``_maybe_merge``, the continuous
query plane's re-homing) are covered by ``test_index``,
``test_properties`` and ``test_mcast``.
"""

import itertools
import random

import pytest

from repro.common.errors import IndexCorruptionError, InvalidLabelError
from repro.common.labels import root_label, sibling, virtual_root
from repro.core.naming import (
    merge_homes,
    moved_child,
    naming_function,
    split_homes,
    survivor_child,
)
from repro.core.records import Record
from repro.core.split import DataAwareSplit, ThresholdSplit

DEPTH = 5


def labels_to_depth(dims, depth=DEPTH):
    root = root_label(dims)
    return [
        root + "".join(bits)
        for length in range(depth + 1)
        for bits in itertools.product("01", repeat=length)
    ]


def random_subtree_leaves(rng, origin, levels):
    """Leaf set of a random subtree below *origin*, at least one split."""
    leaves, frontier = [], [origin + "0", origin + "1"]
    while frontier:
        label = frontier.pop()
        if len(label) - len(origin) < levels and rng.random() < 0.5:
            frontier += [label + "0", label + "1"]
        else:
            leaves.append(label)
    rng.shuffle(leaves)
    return leaves


def internal_nodes(origin, leaves):
    return {
        leaf[:end]
        for leaf in leaves
        for end in range(len(origin), len(leaf))
    }


@pytest.mark.parametrize("dims", [1, 2, 3])
class TestSplitHomes:
    def test_one_level_split_is_theorem_5(self, dims):
        for origin in labels_to_depth(dims):
            homes = split_homes(origin, (origin + "0", origin + "1"), dims)
            assert homes.name == naming_function(origin, dims)
            assert homes.survivor == survivor_child(origin, dims)
            assert homes.moved == ((moved_child(origin, dims), origin),)
            assert homes.dead == (origin,)
            assert homes.born == (origin + "0", origin + "1")

    def test_multi_level_plans_keep_the_bijection(self, dims):
        """A data-aware plan's leaves are named by the origin's name
        plus exactly the subtree's internal nodes, each once."""
        rng = random.Random(dims)
        for origin in labels_to_depth(dims, 3):
            leaves = random_subtree_leaves(rng, origin, levels=4)
            homes = split_homes(origin, leaves, dims)
            assert homes.born == tuple(leaves)
            assert naming_function(homes.survivor, dims) == homes.name
            # The survivor lies on the chain of surviving children.
            chain = origin
            while chain != homes.survivor:
                chain = survivor_child(chain, dims)
                assert homes.survivor.startswith(chain)
            moved_labels = [label for label, _ in homes.moved]
            assert moved_labels == [
                label for label in leaves if label != homes.survivor
            ]
            names = [name for _, name in homes.moved]
            assert all(
                name == naming_function(label, dims)
                for label, name in homes.moved
            )
            assert sorted(names) == sorted(internal_nodes(origin, leaves))

    def test_zero_or_two_survivors_are_corruption(self, dims):
        origin = root_label(dims) + "01"
        survivor = survivor_child(origin, dims)
        moved = moved_child(origin, dims)
        with pytest.raises(IndexCorruptionError, match="0 plan leaves"):
            split_homes(origin, [moved], dims)
        with pytest.raises(IndexCorruptionError, match="2 plan leaves"):
            split_homes(origin, [survivor, moved, survivor], dims)
        with pytest.raises(IndexCorruptionError, match="bijection"):
            # Leaves of some other subtree never keep this origin's name.
            other = sibling(origin, dims)
            split_homes(origin, [other + "0", other + "1"], dims)


@pytest.mark.parametrize("dims", [1, 2, 3])
class TestMergeHomes:
    def test_merge_is_the_one_level_split_read_backwards(self, dims):
        for parent in labels_to_depth(dims, DEPTH - 1):
            split = split_homes(parent, (parent + "0", parent + "1"), dims)
            for child in (parent + "0", parent + "1"):
                homes = merge_homes(child, dims)
                assert homes.parent == parent
                assert homes.name == split.name
                assert homes.survivor == split.survivor
                assert ((homes.moved, homes.parent),) == split.moved
                assert homes.dead == (child, sibling(child, dims))
                assert homes.born == (parent,)
                assert homes.sibling == sibling(child, dims)
                assert homes.sibling_name == naming_function(
                    homes.sibling, dims
                )
                assert homes.child_is_moved == (child == split.moved[0][0])

    def test_the_root_has_nothing_to_merge_with(self, dims):
        with pytest.raises(InvalidLabelError):
            merge_homes(root_label(dims), dims)
        with pytest.raises(InvalidLabelError):
            merge_homes(virtual_root(dims), dims)


class TestRealPlans:
    """The kernel places what the strategies actually plan."""

    def records(self, seed, count, low=0.0, high=1.0):
        rng = random.Random(seed)
        span = high - low
        return [
            Record.make(
                (low + rng.random() * span, low + rng.random() * span), i,
                dims=2,
            )
            for i in range(count)
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_data_aware_plans(self, seed):
        # Clustered in one corner, so Algorithm 1 plans several levels.
        records = self.records(seed, 120, high=0.2)
        plan = DataAwareSplit(expected_load=10).plan_split(
            "001", records, 2, 20
        )
        assert plan is not None
        labels = [label for label, _ in plan.leaves]
        assert max(map(len, labels)) > len("001") + 1
        homes = split_homes(plan.origin, labels, 2)
        assert homes.name == naming_function("001", 2) == "00"
        assert len(homes.moved) == len(labels) - 1
        assert len({name for _, name in homes.moved}) == len(homes.moved)

    def test_threshold_plans(self):
        # Cell 0010 is x < 0.5, halved next at y = 0.5: three records
        # on either side, so one level is enough.
        records = [
            Record.make((0.1 * i, y), i, dims=2)
            for i in range(1, 4)
            for y in (0.2, 0.7)
        ]
        plan = ThresholdSplit(4).plan_split("0010", records, 2, 20)
        homes = split_homes(plan.origin, [label for label, _ in plan.leaves], 2)
        assert homes.survivor == survivor_child("0010", 2)
        assert homes.moved == ((moved_child("0010", 2), "0010"),)
