"""Mutations cut short between two of their steps.

An index operation is a generator of facade steps, so abandoning one
after any step is one ``close()`` away: the client crashed there.  A
split or merge stopped between its writes must leave a tree that stays
readable and that the next operation repairs.  The tests below pin
windows where it does not yet (ROADMAP item 12); each operation is
advanced by hand through ``Dht.perform`` on ``LocalDht(8)`` with a
split threshold of 4, or, in the last one, cut short by dropped frames
behind the retry wrapper.
"""

from __future__ import annotations

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import IndexCorruptionError, NodeUnreachableError
from repro.common.geometry import Region
from repro.core.index import MLightIndex
from repro.core.records import Record
from repro.datasets.synthetic import uniform_points
from repro.dht.api import PUT_MANY, REMOVE, REWRITE
from repro.dht.faults import FaultPlan, FaultyDht
from repro.dht.localhash import LocalDht
from repro.dht.retry import RetryingDht

CONFIG = IndexConfig(dims=2, split_threshold=4, merge_threshold=2)
POINTS = [(0.1 * n, 0.1 * n) for n in range(1, 6)]


def advance_past(dht, operation, kind) -> tuple:
    """Advance *operation* through its first *kind* step; the step it
    yields next."""
    step = next(operation)
    while step[0] is not kind:
        step = operation.send(dht.perform(step))
    return operation.send(dht.perform(step))


def abandon_after(dht, operation, kind) -> None:
    """Advance *operation* up to its first *kind* step, perform that
    step, and abandon the operation there."""
    advance_past(dht, operation, kind)
    operation.close()


@pytest.mark.xfail(
    strict=True, raises=IndexCorruptionError, reason="ROADMAP item 12"
)
def test_a_split_abandoned_after_its_put_many_leaves_a_sound_tree():
    """Today the moved leaf ``0011`` lands beside the unsplit ``001``,
    which still holds all five records: the leaves overlap and six
    records are stored for five inserts."""
    dht = LocalDht(8)
    index = MLightIndex(dht, CONFIG)
    for point in POINTS[:4]:
        index.insert(point)
    abandon_after(dht, index._insert(Record.make(POINTS[4], dims=2)), PUT_MANY)
    index.check_invariants()
    assert index.total_records() == 5


@pytest.mark.xfail(
    strict=True, raises=IndexCorruptionError, reason="ROADMAP item 12"
)
def test_a_merge_abandoned_after_its_remove_keeps_the_space_covered():
    """Today the moved bucket is gone before the merged one is written,
    so part of the space has no leaf and a whole-space range query
    raises."""
    dht = LocalDht(8)
    index = MLightIndex(dht, CONFIG)
    for point in POINTS:
        index.insert(point)
    assert index.tree_size() == 2  # the fifth insert split the root leaf
    for point in POINTS[:3]:
        assert index.delete(point)
    abandon_after(dht, index._delete(POINTS[3], None), REMOVE)
    result = index.range_query(Region((0.0, 0.0), (1.0, 1.0)))
    assert [record.key for record in result.records] == [POINTS[4]]


@pytest.mark.xfail(
    strict=True, raises=IndexCorruptionError, reason="ROADMAP item 12"
)
@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
def test_a_merge_whose_rewrite_peer_fails_keeps_the_space_covered(
    make_dht, transport
):
    """The owner of the merged bucket's key crashes after the merge's
    ``REMOVE`` and before its ``REWRITE`` frame, and restarts from its
    journal.  Today it comes back with the unmerged child while the
    moved child is gone, so a whole-space range query raises."""
    dht = make_dht(kind=transport, n_peers=4, durability="log")
    index = MLightIndex(dht, CONFIG)
    for point in POINTS:
        index.insert(point)
    assert index.tree_size() == 2
    for point in POINTS[:3]:
        assert index.delete(point)
    operation = index._delete(POINTS[3], None)
    step = advance_past(dht, operation, REMOVE)
    assert step[0] is REWRITE
    owner = dht.peer_of(step[1])
    dht.fail(owner)
    with pytest.raises(NodeUnreachableError):
        dht.perform(step)
    operation.close()
    dht.restart(owner)
    result = index.range_query(Region((0.0, 0.0), (1.0, 1.0)))
    assert [record.key for record in result.records] == [POINTS[4]]


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 12"
)
def test_a_retried_insert_is_stored_once():
    """One frame in three is dropped under the retry wrapper, with
    data-aware splits.  Today an insert can raise after its record write
    landed (a later write of its split ran out of retries), so a client
    that retries the raised insert stores the record twice: 13 records
    for 12 inserts in this seeded world."""
    config = IndexConfig(
        dims=2, split_threshold=4, merge_threshold=2,
        strategy="data-aware", expected_load=2,
    )
    faulty = FaultyDht(LocalDht(8), FaultPlan(0, drop_rate=0.3))
    with faulty.suspended():
        index = MLightIndex(RetryingDht(faulty), config)
    points = uniform_points(12, seed=0)
    for point in points:
        for _ in range(50):
            try:
                index.insert(point)
                break
            except NodeUnreachableError:
                continue  # the client retries a raised insert
        else:
            pytest.fail(f"insert of {point} never went through")
    with faulty.suspended():
        index.check_invariants()
        assert index.total_records() == len(points)
