"""A record-list store's sorted run, kept across appends, against a
from-scratch build and the naive scan.

A query that finds the run older than the store merges just the rows
appended since (``bisect_right`` on the sort column: the stable sort's
tie order); a ``remove`` makes the next query build it from scratch.
Seeded add / remove / duplicate-add / query sequences drive both store
kinds in 1–4 dimensions, on coordinates drawn partly from a small grid
so that sort-dimension keys tie.  After every query the answer must be
the naive scan's (``LeafBucket.matching_naive``'s predicate over a
shadow list, so the store keeps the form it is in), in insertion order,
and a current run must equal the one a from-scratch build makes: the
same positions in the same order and the same columns.
"""

import random
import sys
import threading
import time
from array import array

import pytest

from repro.common.geometry import Region
from repro.core import npstore
from repro.core.records import Record
from repro.core.store import Rows, create_store

KINDS = [
    "columnar",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(
            not npstore.HAVE_NUMPY, reason="numpy not installed"
        ),
    ),
]

#: Coordinates many draws share, so sort-dimension keys tie.
GRID = (0.0, 0.125, 0.25, 0.5, 0.75, 0.875)

STEPS = 400


def coordinate(rng: random.Random) -> float:
    return rng.choice(GRID) if rng.random() < 0.6 else rng.random()


def point(rng: random.Random, dims: int) -> tuple:
    return tuple(coordinate(rng) for _ in range(dims))


def box(rng: random.Random, dims: int) -> tuple:
    lows, highs = [], []
    for _ in range(dims):
        a, b = sorted((coordinate(rng), coordinate(rng)))
        if rng.random() < 0.2:
            b = a  # a degenerate face, on the grid as often as not
        lows.append(a)
        highs.append(b)
    return tuple(lows), tuple(highs)


def naive(model, lows, highs) -> list:
    region = Region(lows, highs)
    return [record for record in model if region.contains_point_closed(record.key)]


def plain(columns) -> list:
    return [list(column) for column in columns]


def assert_run_is_fresh(store) -> None:
    """A current run equals a from-scratch build of the same records."""
    run = store._run
    if run is None or run[0] != store.generation:
        return
    keys = list(zip(*(record.key for record in store.records())))
    fresh = store._fresh_run(keys or [()] * store.dims, store.generation)
    assert run[1] == fresh[1]
    assert plain(run[2]) == plain(fresh[2])


def drive(store, model, rng: random.Random, dims: int, serial: int) -> int:
    """Run a seeded operation mix on *store* and its shadow *model*."""
    for _ in range(STEPS):
        roll = rng.random()
        if roll < 0.45:
            value = None if rng.random() < 0.3 else serial
            serial += 1
            record = Record.make(point(rng, dims), value, dims=dims)
            store.add(record)
            model.append(record)
        elif roll < 0.55 and model:
            # A duplicate: equal to a stored record, so equal answers.
            record = rng.choice(model)
            store.add(record)
            model.append(record)
        elif roll < 0.62 and model:
            record = rng.choice(model)
            assert store.remove(record)
            model.remove(record)
        else:
            lows, highs = box(rng, dims)
            assert store.matching(lows, highs) == naive(model, lows, highs)
            assert_run_is_fresh(store)
    assert store.count == len(model)
    assert store.records() == model
    return serial


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dims", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_record_store_run_tracks_the_naive_scan(kind, dims, seed):
    rng = random.Random(seed * 10 + dims)
    model = [
        Record.make(point(rng, dims), index, dims=dims) for index in range(20)
    ]
    store = create_store(kind, dims, rng.randrange(dims), model)
    drive(store, list(model), rng, dims, len(model))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dims", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_rows_store_turns_into_records_and_keeps_its_run(kind, dims, seed):
    """A store built from columns scans them until a second query at
    one generation turns it into records; its run then absorbs later
    appends the same way."""
    rng = random.Random(1000 + seed * 10 + dims)
    points = [point(rng, dims) for _ in range(30)]
    values = None if seed % 2 else list(range(30))
    model = [
        Record.make(key, None if values is None else values[index], dims=dims)
        for index, key in enumerate(points)
    ]
    rows = Rows(
        dims, [array("d", column) for column in zip(*points)], values
    )
    store = create_store(kind, dims, rng.randrange(dims), rows)
    lows, highs = box(rng, dims)
    for _ in range(2):  # the scan, then the records and their first run
        assert store.matching(lows, highs) == naive(model, lows, highs)
    assert store._rows is None
    assert_run_is_fresh(store)
    drive(store, model, rng, dims, len(model))


@pytest.mark.parametrize("kind", KINDS)
def test_remove_between_appends_rebuilds_the_run(kind):
    """Appends after a remove land in a run built from scratch, not in
    one whose positions the remove shifted."""
    dims = 2
    records = [Record.make((0.5, y / 10), y, dims=dims) for y in range(6)]
    store = create_store(kind, dims, 0, records[:4])
    model = records[:4]
    everything = ((0.0, 0.0), (1.0, 1.0))
    assert store.matching(*everything) == model
    store.add(records[4])
    model.append(records[4])
    assert store.matching(*everything) == model
    assert_run_is_fresh(store)
    assert store.remove(records[1])
    model.remove(records[1])
    store.add(records[5])
    model.append(records[5])
    assert store.matching(*everything) == model
    assert store.matching((0.5, 0.45), (0.5, 1.0)) == records[5:]
    assert_run_is_fresh(store)


def test_equal_keys_merge_after_the_run_like_a_stable_sort():
    """Every sort key ties: each appended position goes after all of
    them, which is the order a stable sort gives."""
    dims = 2
    store = create_store("columnar", dims, 0)
    for y in range(3):
        store.add(Record.make((0.25, y / 4), y, dims=dims))
    store.matching((0.0, 0.0), (1.0, 1.0))
    for y in range(3, 6):
        store.add(Record.make((0.25, (5 - y) / 8), y, dims=dims))
    store.matching((0.0, 0.0), (1.0, 1.0))
    assert store._run[1] == list(range(6))
    assert_run_is_fresh(store)


def test_a_merge_publishes_a_new_run_and_leaves_the_old_one_whole():
    """The run is replaced in one assignment: a reader holding the old
    tuple keeps a consistent run while appends are merged."""
    dims = 2
    rng = random.Random(5)
    store = create_store(
        "columnar", dims, 1,
        [Record.make(point(rng, dims), index, dims=dims) for index in range(10)],
    )
    store.matching((0.0, 0.0), (1.0, 1.0))
    old = store._run
    old_order, old_columns = list(old[1]), plain(old[2])
    store.add(Record.make(point(rng, dims), 10, dims=dims))
    store.matching((0.0, 0.0), (1.0, 1.0))
    assert store._run is not old
    assert old[1] == old_order and plain(old[2]) == old_columns
    assert len(store._run[1]) == 11


@pytest.mark.parametrize("kind", KINDS)
def test_readers_on_other_threads_see_a_whole_run(kind):
    """One thread appends while three others query: every answer is
    the naive scan of the records stored when the query started plus
    some of those appended while it ran — never a run that mixes two
    builds (an index past its columns, a record from a shifted list)."""
    dims = 2
    rng = random.Random(9)
    appended = [
        Record.make(point(rng, dims), index, dims=dims) for index in range(2000)
    ]
    store = create_store(kind, dims, 0, appended[:20])
    boxes = [box(rng, dims) for _ in range(50)]
    failures = []

    def write():
        for record in appended[20:]:
            store.add(record)
            time.sleep(0)

    def read(seed):
        rng = random.Random(seed)
        for _ in range(300):
            lows, highs = rng.choice(boxes)
            before = store.count
            answer = store.matching(lows, highs)
            after = store.count
            # Insertion order: any stored prefix's answer is a prefix
            # of the answer over everything stored by the end.
            full = naive(appended[:after], lows, highs)
            least = len(naive(appended[:before], lows, highs))
            if len(answer) < least or answer != full[: len(answer)]:
                failures.append((lows, highs, before, after))
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read, args=(seed,)) for seed in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert store.matching((0.0, 0.0), (1.0, 1.0)) == appended
    assert_run_is_fresh(store)
