"""Smoke-test the service runtime on the running interpreter, no pytest.

CI runs tier-1 on Python 3.10, 3.11 and 3.12; this script is the quick
check for an interpreter that has no pytest.  On both transports it
bulk-loads an index of records, two in three carrying a payload, then
runs a cold lookup, range queries, splitting inserts, merging deletes,
a burst of four client threads, a handler that suspends and a
whole-space ``MCAST`` query, checks every answer — keys and payloads —
against a brute-force scan, and exits non-zero on a mismatch.  It also
checks that an in-process lookup starts no asyncio Task, that the
in-process runtime starts no thread of its own, and that inserted
records, with and without a payload, survive their owners' crash:
journalled as one appended row each, replayed by the restart, and
answered with their payloads by a whole-space range query that matches
every replayed leaf from its bytes.  Over TCP it also sends a peer a
frame of the old wire version with a pickled body, and checks that the
peer hangs up without unpickling it.

Last, it drives one step of every kind (:data:`STEPS`), each as a
one-step operation, on both transports and on ``LocalDht``, and checks
that each step's outcome, raised type, meter delta and stored value
agree with ``LocalDht``'s.

Usage: ``PYTHONPATH=src python tools/service_smoke.py``.
"""

from __future__ import annotations

import asyncio
import pickle
import platform
import socket
import sys
import tempfile
import threading

from repro.common.config import IndexConfig
from repro.common.geometry import Region
from repro.common.labels import root_label
from repro.core.bucket import LeafBucket
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.core.keys import bucket_key
from repro.core.naming import naming_function
from repro.core.records import Record
from repro.datasets.synthetic import uniform_points
from repro.dht.api import (
    CALL, GET, GET_DIRECT, GET_MANY, LOOKUP, PUT, PUT_MANY, REMOVE, REWRITE,
    BatchFailure,
)
from repro.dht.localhash import LocalDht
from repro.mcast import ServiceMulticast
from repro.service.node import ServiceDht
from repro.service.wire import HEADER, MAGIC, Op, encode_reply

CONFIG = IndexConfig(dims=2, split_threshold=8, merge_threshold=4)
POINTS = uniform_points(400, seed=3)
#: ``(key, value)`` pairs; every third value is None, so a bucket's
#: payloads mix None and non-None and must stay aligned with its keys.
RECORDS = [
    (point, None if i % 3 == 0 else f"v{i}") for i, point in enumerate(POINTS)
]
QUERY = Region((0.2, 0.1), (0.6, 0.5))
#: What the burst inserts: points outside QUERY, so the burst's range
#: queries have one answer however its threads interleave.
BURST = [
    (point, f"b{i}")
    for i, point in enumerate(uniform_points(80, seed=4))
    if not QUERY.contains_point_closed(point)
]


def inside(records, region):
    return sorted(
        (pair for pair in records if region.contains_point_closed(pair[0])),
        key=lambda pair: pair[0],
    )


def pairs(result):
    return sorted(
        ((r.key, r.value) for r in result.records), key=lambda pair: pair[0]
    )


def burst(index, expected) -> list:
    """Four client threads at once: each inserts its quarter of BURST
    (one lock serialises writers, as the load generator does), and
    queries QUERY and looks up a stored point after every insert.
    Returns each query's answer and each lookup's verdict."""
    lock = threading.Lock()
    seen: list = []

    def client(part) -> None:
        for point, value in part:
            with lock:
                index.insert(point, value)
            seen.append(pairs(index.range_query(QUERY)) == expected)
            seen.append(index.lookup(point).bucket.covers(point))

    threads = [
        threading.Thread(target=client, args=(part,), name="burst")
        for part in (BURST[n::4] for n in range(4))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return seen


#: What unpickling a :class:`Tripwire` appended.
TRIPPED: list = []


def trip() -> None:
    TRIPPED.append(True)


class Tripwire:
    def __reduce__(self):
        return (trip, ())


def foreign_frame(dht, check) -> None:
    """A version-1 ``GET`` frame with a pickled body: the peer must hang
    up without a reply and without unpickling it."""
    body = pickle.dumps(("k", Tripwire()), protocol=pickle.HIGHEST_PROTOCOL)
    port = dht._member(dht.peers()[0]).server.sockets[0].getsockname()[1]
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(HEADER.pack(MAGIC, 1, Op.GET, 1, len(body)) + body)
        check("reply to a foreign frame", sock.recv(64), b"")
    check("foreign frame unpickled", TRIPPED, [])


async def suspending_echo(peer, frame):
    await asyncio.sleep(0)  # finishes as a Task on either transport
    return encode_reply(frame.request_id, (peer.name, frame.body))


def smoke(transport: str) -> list[str]:
    """Problems found on *transport* (empty: all good)."""
    problems = []

    def check(what, got, want):
        if got != want:
            problems.append(f"{transport}: {what}: {got!r} != {want!r}")

    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        start(thread)

    threading.Thread.start = recording
    try:
        with ServiceDht(8, transport=transport) as dht:
            run_everything(dht, transport, check)
            if transport == "tcp":
                foreign_frame(dht, check)
    finally:
        threading.Thread.start = start
    runtime_threads = [name for name in started if name != "burst"]
    loop_threads = {"asyncio": [], "tcp": ["repro-service-loop"]}
    check("threads started", runtime_threads, loop_threads[transport])
    with tempfile.TemporaryDirectory() as data_dir:
        with ServiceDht(
            4, transport=transport, durability="log", data_dir=data_dir
        ) as dht:
            durable_append(dht, check)
    return problems


def durable_append(dht, check) -> None:
    """Insert a record without a payload and one with, crash the owners
    of their leaves, restart them from their logs, look the records up
    and range-query everything."""
    bulk_load(dht, RECORDS[:100], CONFIG)
    index = MLightIndex(dht, CONFIG)
    inserted = RECORDS[150:152]  # payloads None and "v151"
    sent = dht.network.stats.per_type
    appends = sent.get("append", 0)
    owners = set()
    for point, value in inserted:
        leaf = index.insert(point, value).bucket
        name = naming_function(leaf.label, CONFIG.dims)
        owners.add(dht.peer_of(bucket_key(name)))
    check("insert frames", sent.get("append", 0) - appends, len(inserted))
    for owner in sorted(owners):
        dht.fail(owner)
        dht.restart(owner)
    for point, value in inserted:
        found = index.lookup(point).bucket
        check(
            "record after restart",
            [r.value for r in found.records if r.key == point], [value],
        )
    check("records after restart", index.total_records(), 102)
    everything = Region((0.0, 0.0), (1.0, 1.0))
    check(
        "range after restart", pairs(index.range_query(everything)),
        inside(RECORDS[:100] + inserted, everything),
    )


def run_everything(dht, transport: str, check) -> None:
    """The whole scenario on *dht*; every answer goes through *check*."""
    bulk_load(dht, RECORDS[:300], CONFIG)
    index = MLightIndex(dht, CONFIG)
    created = []

    def factory(loop, coro, **kwargs):
        created.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def install():
        asyncio.get_running_loop().set_task_factory(factory)

    dht._bridge().run(install())
    found = index.lookup(POINTS[0]).bucket
    check("lookup", found.covers(POINTS[0]), True)
    if transport == "asyncio":
        check("tasks per lookup", len(created), 0)
    check(
        "range query", pairs(index.range_query(QUERY)),
        inside(RECORDS[:300], QUERY),
    )
    puts = dht.stats.puts
    for point, value in RECORDS[300:]:
        index.insert(point, value)
    check("inserts split", dht.stats.puts > puts, True)
    check(
        "range after inserts", pairs(index.range_query(QUERY)),
        inside(RECORDS, QUERY),
    )
    point, value = RECORDS[301]
    leaf = index.lookup(point).bucket
    check(
        "lookup payload",
        [r.value for r in leaf.records if r.key == point], [value],
    )
    removes = dht.stats.removes
    for point, value in RECORDS[:200]:
        check("delete", index.delete(point, value), True)
    check("deletes merge", dht.stats.removes > removes, True)
    check(
        "range after deletes", pairs(index.range_query(QUERY)),
        inside(RECORDS[200:], QUERY),
    )
    seen = burst(index, inside(RECORDS[200:], QUERY))
    check("burst answers", seen, [True] * (2 * len(BURST)))
    index.check_invariants()
    dht.install_handler(Op.PUSH, suspending_echo)
    check(
        "suspending handler", dht.call(Op.PUSH, "k", body="x"),
        (dht.peer_of("k"), "x"),
    )
    everything = Region((0.0, 0.0), (1.0, 1.0))
    mcast = ServiceMulticast(dht, 2, CONFIG.max_depth)
    check(
        "mcast query", pairs(mcast.query(everything)),
        inside(RECORDS[200:] + BURST, everything),
    )


#: Stands for the owner of ``"k"`` in a step and in an outcome.
OWNER = "<owner>"
#: What a ``REWRITE`` that appends a record adds to the bucket at "b".
RECORD = Record((0.75, 0.25), "appended")

#: One step of every kind, each run as a one-step operation on a DHT
#: holding ``"k" -> "v"`` and a one-record bucket at ``"b"``.  A
#: ``None`` value in a ``REWRITE`` stands for that bucket, as read,
#: plus :data:`RECORD`.
STEPS = {
    "get": (GET, "k"),
    "get absent": (GET, "absent"),
    "get empty key": (GET, ""),
    "lookup": (LOOKUP, "k"),
    "get_direct": (GET_DIRECT, "k", OWNER),
    "put": (PUT, "k", "v2", 0),
    "put moving records": (PUT, "new", "v3", 2),
    "get_many": (GET_MANY, ["k", "absent", "b"]),
    "get_many empty": (GET_MANY, []),
    "put_many": (PUT_MANY, [("k", "v4"), ("new", "v5")], [1, 0]),
    "put_many empty": (PUT_MANY, [], []),
    "rewrite": (REWRITE, "k", "v6"),
    "rewrite absent": (REWRITE, "absent", "v7"),
    "rewrite appending a record": (REWRITE, "b", None, RECORD),
    "remove": (REMOVE, "k", 1),
    "remove absent": (REMOVE, "absent", 0),
    "remove empty key": (REMOVE, "", 0),
    "call": (CALL, len, ("four",)),
}


def one_step(step):
    """An operation of exactly one step; its outcome."""
    return (yield step)


def comparable(value, owner: str):
    """*value* with what differs between runtimes by construction taken
    out: the owner's name, a bucket's identity, a failure's message."""
    if isinstance(value, list):
        return [comparable(item, owner) for item in value]
    if isinstance(value, LeafBucket):
        return ("bucket", sorted((r.key, r.value) for r in value.records))
    if isinstance(value, BatchFailure):
        return ("failure", type(value.error).__name__)
    return OWNER if value == owner else value


def step_outcome(dht, name: str) -> tuple:
    """Run step *name* of :data:`STEPS` as a one-step operation on
    *dht*: ``(outcome or raised type, meter delta, stored value of the
    step's key)``.  The meter delta leaves out ``hops``, which counts
    overlay routing, not the step."""
    dht.put("k", "v")
    dht.put("b", LeafBucket(root_label(2), 2, [Record((0.25, 0.5), "a")]))
    owner = dht.peer_of("k")
    step = tuple(owner if part == OWNER else part for part in STEPS[name])
    if step[0] is REWRITE and step[2] is None:
        bucket = dht.get("b")
        bucket.add(RECORD)
        step = (REWRITE, "b", bucket, RECORD)
    before = dht.stats.snapshot()
    try:
        outcome = comparable(dht.drive(one_step(step)), owner)
    except Exception as error:
        outcome = type(error).__name__
    after = dht.stats.snapshot()
    delta = {
        field: after[field] - before[field]
        for field in before
        if field != "hops" and after[field] != before[field]
    }
    key = step[1] if isinstance(step[1], str) else "k"
    return outcome, delta, comparable(dht.peek(key), owner)


def step_table(transport: str) -> list[str]:
    """Problems found driving :data:`STEPS` on *transport* against
    ``LocalDht`` (empty: all good)."""
    problems = []
    for name in STEPS:
        want = step_outcome(LocalDht(4), name)
        with ServiceDht(4, transport=transport) as dht:
            got = step_outcome(dht, name)
        if got != want:
            problems.append(f"{transport}: step {name!r}: {got!r} != {want!r}")
    return problems


def main() -> int:
    problems = [
        p
        for transport in ("asyncio", "tcp")
        for p in smoke(transport) + step_table(transport)
    ]
    for problem in problems:
        print("FAIL", problem)
    status = "FAIL" if problems else "ok"
    print(f"service smoke {status} on Python {platform.python_version()}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
