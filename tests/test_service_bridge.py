"""The bridge into the service loop follows the transport.

In process (``transport="asyncio"``) the calling thread runs each
operation itself, behind one gate, as plain calls with the event loop
marked running; it turns the loop only when the operation suspends (an
installed handler that awaits).  The runtime starts no thread, and
concurrent callers take turns.  Over TCP one loop thread keeps the loop
running and is joined at ``close()``.  Either way the first use builds
the bridge and the peers exactly once, however many threads race to
it.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import ReproError
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.datasets.synthetic import uniform_points
from repro.dht.localhash import LocalDht
from repro.service import node as service_node
from repro.service.node import ServiceDht
from repro.service.wire import Op, encode_reply
from tests.test_service_wire_pin import box

CONFIG = IndexConfig(dims=2, split_threshold=12, merge_threshold=4)
POINTS = uniform_points(400, seed=11)
BASE = POINTS[:240]
#: Inserts land left of x = 0.5, queries look right of it: the root's
#: first split halves dimension 0 there, so no leaf a query visits is
#: touched by a concurrent insert and every answer is interleaving-free.
LEFT = [point for point in POINTS[240:] if point[0] < 0.5]
RIGHT = [point for point in BASE if point[0] > 0.56]  # box() spans 0.05


def test_the_in_process_runtime_starts_no_thread(monkeypatch):
    """A whole life — start, bulk load, lookup, range query, splitting
    insert, merging delete, extension call, close — starts no thread,
    and an installed handler runs on the caller's thread."""
    started: list = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    config = IndexConfig(dims=2, split_threshold=4, merge_threshold=2)
    corner = [(0.01 * n, 0.01 * n) for n in range(1, 6)]
    handled: list = []

    async def handler(peer, frame):
        handled.append(threading.get_ident())
        return encode_reply(frame.request_id, frame.body)

    dht = ServiceDht(8).start()
    bulk_load(dht, POINTS[:60], config)
    index = MLightIndex(dht, config)
    assert index.lookup(POINTS[0]).bucket.covers(POINTS[0])
    assert index.range_query(box(POINTS[1])).complete
    for point in corner[:4]:
        index.insert(point)
    puts = dht.stats.puts
    index.insert(corner[4])
    assert dht.stats.puts > puts  # it split
    removes = dht.stats.removes
    for point in corner:
        assert index.delete(point)
    assert dht.stats.removes > removes  # it merged
    dht.install_handler(Op.MCAST, handler)
    assert dht.call(Op.MCAST, "k", body="echo") == "echo"
    dht.close()
    assert started == []
    assert handled == [threading.get_ident()]


def test_in_process_operations_turn_the_loop_only_to_suspend(monkeypatch):
    """A lookup, a range query, a splitting insert and a merging delete
    run as plain calls on the caller's thread: none turns the event
    loop or leaves a callback scheduled on it.  An installed handler
    that suspends still answers, through one loop turn."""
    config = IndexConfig(dims=2, split_threshold=4, merge_threshold=2)
    corner = [(0.01 * n, 0.01 * n) for n in range(1, 6)]

    async def suspending(peer, frame):
        await asyncio.sleep(0)
        return encode_reply(frame.request_id, frame.body)

    with ServiceDht(8) as dht:
        bulk_load(dht, POINTS[:60], config)
        index = MLightIndex(dht, config)
        loop = dht._bridge().loop
        turns: list = []
        run_forever = loop.run_forever

        def counting():
            turns.append(loop)
            return run_forever()

        monkeypatch.setattr(loop, "run_forever", counting)
        assert index.lookup(POINTS[0]).bucket.covers(POINTS[0])
        assert index.range_query(box(POINTS[1])).complete
        for point in corner[:4]:
            index.insert(point)
        puts = dht.stats.puts
        index.insert(corner[4])
        assert dht.stats.puts > puts  # it split
        removes = dht.stats.removes
        for point in corner:
            assert index.delete(point)
        assert dht.stats.removes > removes  # it merged
        assert turns == [] and not loop._ready
        dht.install_handler(Op.MCAST, suspending)
        assert dht.call(Op.MCAST, "k", body="echo") == "echo"
        assert turns == [loop] and not loop._ready


def test_a_call_from_inside_another_event_loop_is_refused_cleanly():
    """The in-process bridge cannot run its loop on a thread that runs
    one already: the call raises, starts nothing, and the runtime
    serves the next call from a plain thread as before."""
    with ServiceDht(2) as dht:
        dht.put("k", 1)

        async def nested():
            with pytest.raises(ReproError, match="loop thread"):
                dht.put("k", 2)

        asyncio.run(nested())
        assert dht.get("k") == 1


class _Probe:
    """Enter/exit marks of handler bodies; the most ever inside at once."""

    def __init__(self) -> None:
        self.inside = self.most = self.entered = 0

    def enter(self) -> None:
        self.inside += 1
        self.entered += 1
        self.most = max(self.most, self.inside)

    def exit(self) -> None:
        self.inside -= 1


def test_concurrent_callers_take_turns_and_answer_as_in_process():
    """Four caller threads interleave lookups, range queries, inserts
    (serialised by one lock, as the load generator does) and calls to
    a handler that suspends.  Every answer equals a ``LocalDht`` run's,
    and no two handler bodies are ever inside at once."""
    probe = _Probe()

    async def suspending(peer, frame):
        probe.enter()
        await asyncio.sleep(0)
        probe.exit()
        return encode_reply(frame.request_id, ("echo", frame.body))

    def answers(index, op):
        kind, arg = op
        if kind == "lookup":
            found = index.lookup(arg).bucket
            return found.covers(arg), arg in [r.key for r in found.records]
        if kind == "range":
            return sorted(r.key for r in index.range_query(box(arg)).records)
        return None

    ops = []
    for n in range(len(LEFT)):
        ops.append(("insert", LEFT[n]))
        ops.append(("lookup", RIGHT[n % len(RIGHT)]))
        ops.append(("range", RIGHT[(3 * n) % len(RIGHT)]))
        ops.append(("call", n))

    local = LocalDht(8)
    bulk_load(local, BASE, CONFIG)
    oracle = MLightIndex(local, CONFIG)
    expected = []
    for op in ops:
        if op[0] == "insert":
            oracle.insert(op[1])
        expected.append(
            ("echo", op[1]) if op[0] == "call" else answers(oracle, op)
        )

    with ServiceDht(8) as dht:
        bulk_load(dht, BASE, CONFIG)
        index = MLightIndex(dht, CONFIG)
        dht.install_handler(Op.MCAST, suspending)
        mutation = threading.Lock()

        def run(op):
            if op[0] == "insert":
                with mutation:
                    index.insert(op[1])
                return None
            if op[0] == "call":
                return dht.call(Op.MCAST, f"k{op[1]}", body=op[1])
            return answers(index, op)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # many thread switches per call
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(run, ops, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        whole = box((0.5, 0.5), 1.0)
        everything = sorted(r.key for r in index.range_query(whole).records)
        index.check_invariants()

    assert got == expected
    assert everything == sorted(
        r.key for r in oracle.range_query(whole).records
    )
    assert probe.entered == len(LEFT) and probe.most == 1


@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
def test_racing_first_calls_build_one_runtime(transport, monkeypatch):
    """Two threads whose first calls race (the bridge build slowed down
    to widen the window) share one bridge and one peer set; both writes
    read back, and no loop thread outlives ``close()``."""
    bridges: list = []
    peers: list = []
    build = service_node._Bridge.__init__
    serve = service_node._ServicePeer.__init__

    def slow_build(bridge):
        build(bridge)
        bridges.append(bridge)
        time.sleep(0.05)

    def counting_peer(peer, *args):
        serve(peer, *args)
        peers.append(peer)

    monkeypatch.setattr(service_node._Bridge, "__init__", slow_build)
    monkeypatch.setattr(service_node._ServicePeer, "__init__", counting_peer)
    dht = ServiceDht(4, transport=transport)
    barrier = threading.Barrier(2)
    failures: list = []

    def first_use(number: int) -> None:
        barrier.wait()
        try:
            dht.put(f"key-{number}", number)
        except Exception as error:
            failures.append(error)

    threads = [
        threading.Thread(target=first_use, args=(n,)) for n in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert failures == []
    assert len(bridges) == 1 and len(peers) == 4
    assert [dht.get(f"key-{n}") for n in range(2)] == [0, 1]
    dht.close()
    loop_threads = [b._thread for b in bridges if hasattr(b, "_thread")]
    assert len(loop_threads) == (transport == "tcp")
    assert not any(thread.is_alive() for thread in loop_threads)
