"""The service loop runs whole index operations.

A lookup, a range query, an insert (splitting or not) and a delete
(merging or not) on a bare :class:`ServiceDht` cross the client→loop
bridge once each; a wrapped stack still sees, retries, faults and
adapts every probe.  Degraded mode, tracing and the
oracle views behave on the loop as they do in process, from any number
of client threads.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.adaptive import AdaptiveConfig
from repro.adaptive.plane import AdaptiveDht
from repro.common.config import IndexConfig
from repro.common.errors import DhtKeyError, NodeUnreachableError, ReproError
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.core.keys import bucket_key
from repro.core.naming import naming_function
from repro.datasets.synthetic import uniform_points
from repro.dht.api import APPEND, REWRITE
from repro.dht.faults import FaultPlan, FaultyDht
from repro.dht.localhash import LocalDht
from repro.dht.retry import RetryingDht
from repro.mcast import ServiceContinuousPlane
from repro.obs.trace import Tracer
from repro.service import node as service_node
from repro.service.node import ServiceDht
from repro.service.wire import Op, encode_reply
from tests.test_service_wire_pin import box

POINTS = uniform_points(360, seed=5)
BASE, FRESH = POINTS[:300], POINTS[300:]
CONFIG = IndexConfig(dims=2, split_threshold=20, merge_threshold=10)
TRANSPORTS = pytest.mark.parametrize("transport", ["asyncio", "tcp"])


def loaded(dht, config: IndexConfig = CONFIG, wrap=None, **kwargs):
    """*dht* bulk-loaded with BASE, an index over ``wrap(dht)``."""
    bulk_load(dht, BASE, config)
    return MLightIndex(dht if wrap is None else wrap(dht), config, **kwargs)


@pytest.fixture
def crossings(monkeypatch) -> list:
    """One entry per ``_Bridge.run`` call — the one crossing of either
    transport's bridge — on any thread."""
    seen: list = []
    run = service_node._Bridge.run

    def counting(self, coro):
        seen.append(coro)
        return run(self, coro)

    monkeypatch.setattr(service_node._Bridge, "run", counting)
    return seen


def roomy_point(index):
    """A fresh point whose leaf has room: inserting it cannot split."""
    for point in FRESH:
        if index.lookup(point).bucket.load < CONFIG.split_threshold - 1:
            return point
    raise AssertionError("every leaf is full")


class TestCrossingsPerOperation:
    @TRANSPORTS
    def test_bare_service_dht_crosses_once_per_read(
        self, transport, crossings
    ):
        with ServiceDht(8, transport=transport) as dht:
            index = loaded(dht)
            point = roomy_point(index)

            del crossings[:]
            cold = index.lookup(BASE[0])
            assert cold.lookups > 1  # a binary search, not one probe
            assert len(crossings) == 1

            del crossings[:]
            for lookahead in (1, 2):
                result = index.range_query(box(BASE[1]), lookahead)
                assert result.rounds > 1 and result.complete
            assert len(crossings) == 2

            del crossings[:]
            puts_before = dht.stats.puts
            index.insert(point, "fresh")
            assert dht.stats.puts == puts_before  # it did not split
            assert len(crossings) == 1  # lookup and rewrite, one operation

    @TRANSPORTS
    def test_bare_service_dht_crosses_once_per_split_and_merge(
        self, transport, crossings
    ):
        config = IndexConfig(dims=2, split_threshold=4, merge_threshold=2)
        corner = [(0.01 * n, 0.01 * n) for n in range(1, 6)]
        with ServiceDht(8, transport=transport) as dht:
            index = MLightIndex(dht, config)
            for point in corner[:4]:
                index.insert(point)
            del crossings[:]
            before = dht.stats.snapshot()
            index.insert(corner[4])
            assert dht.stats.puts > before["puts"]  # it split
            assert len(crossings) == 1

            del crossings[:]
            before = dht.stats.snapshot()
            for point in corner[:4]:
                assert index.delete(point)
            assert dht.stats.removes > before["removes"]  # it merged
            assert len(crossings) == 4
            index.check_invariants()

    def test_an_attached_plane_runs_its_hooks_off_the_loop(self, crossings):
        """Hooks make blocking facade calls, so they come back to the
        client thread: a plane costs crossings, never a deadlock."""
        with ServiceDht(8) as dht:
            index = loaded(dht)
            plane = ServiceContinuousPlane(index)
            subscriber = plane.subscribe(box(FRESH[0], 0.2))
            del crossings[:]
            for point in FRESH[:30]:
                index.insert(point, "fresh")
            assert FRESH[0] in subscriber.delivered_keys
            assert len(crossings) > 30
            index.check_invariants()

    WRAPPERS = {
        "retry": lambda inner: RetryingDht(inner, attempts=4),
        "faults": lambda inner: RetryingDht(
            FaultyDht(inner, FaultPlan(seed=3, drop_rate=0.15)), attempts=8
        ),
        "adaptive": lambda inner: AdaptiveDht(
            inner,
            AdaptiveConfig(
                sample_every=4, window_samples=1, hot_share=0.2,
                min_window_reads=2, max_replicas=2,
            ),
        ),
    }

    def reads(self, index) -> list:
        answers = []
        for point in BASE[:12] + BASE[:12]:
            answers.append(index.lookup(point).bucket.label)
        for point in BASE[20:26]:
            result = index.range_query(box(point), 2)
            answers.append(sorted(record.key for record in result.records))
        return answers

    def writes(self, index) -> list:
        return [
            index.insert(point, "fresh").bucket.label for point in FRESH[:20]
        ]

    @pytest.mark.parametrize("name", sorted(WRAPPERS))
    def test_wrapped_stacks_still_cross_once_per_probe(
        self, name, crossings
    ):
        wrap = self.WRAPPERS[name]
        reference = loaded(LocalDht(8), wrap=wrap)
        expected = self.reads(reference), self.writes(reference)
        with ServiceDht(8) as dht:
            index = loaded(dht, wrap=wrap)
            network = dht.network.stats
            del crossings[:]
            before = network.snapshot()
            assert self.reads(index) == expected[0]
            after = network.snapshot()
            moved = {key: after[key] - before[key] for key in after}
            # Every request and every round is its own crossing: the
            # wrapper saw (and could retry, fault, redirect) each one.
            singles = moved["rpc_calls"] - moved["round_messages"]
            assert len(crossings) == singles + moved["rounds"]
            assert self.writes(index) == expected[1]
            # ... and its tallies are those of the in-process stack.
            assert index.dht.stats.snapshot() == (
                reference.dht.stats.snapshot()
            )
            if name == "faults":
                assert dht.stats.faults_dropped > 0
                assert dht.stats.retries > 0
            if name == "adaptive":
                assert index.dht.adaptive_stats.snapshot() == (
                    reference.dht.adaptive_stats.snapshot()
                )
                assert index.dht.adaptive_stats.promotions > 0


class DeadPeerPlan(FaultPlan):
    """Drops every operation on a key *victim* owns: what
    ``ServiceDht.fail(victim)`` does, for an in-process substrate."""

    def __init__(self, dht, victim: str) -> None:
        super().__init__()
        self._dht, self._victim = dht, victim

    def decide(self, op, key):
        if key is not None and self._dht.peer_of(key) == self._victim:
            return "drop"
        return None


class TestDegradedModeOnTheLoop:
    CACHED = IndexConfig(
        dims=2, split_threshold=20, merge_threshold=10, cache_capacity=32
    )

    def leaf_key(self, index, point) -> str:
        label = index.lookup(point).bucket.label
        return bucket_key(naming_function(label, index.dims))

    def dead_hint_scenario(self):
        """``(point, stale label, victim, probes)``: the client holds a
        hint for an ancestor of *point*'s leaf whose name *victim*
        owns, and the binary search that follows never touches
        *victim* — found on the in-process stack."""
        local = LocalDht(8)
        reference = loaded(local)
        for point in BASE[:40]:
            leaf = reference.lookup(point).bucket.label
            for length in range(len(leaf) - 1, CONFIG.dims, -1):
                stale = leaf[:length]
                victim = local.peer_of(
                    bucket_key(naming_function(stale, CONFIG.dims))
                )
                index = MLightIndex(
                    FaultyDht(local, DeadPeerPlan(local, victim)),
                    self.CACHED,
                )
                index.cache.observe(stale)
                try:
                    result = index.lookup(point)
                except NodeUnreachableError:
                    continue
                assert stale not in index.cache
                return point, stale, victim, result.lookups
        raise AssertionError("no dead-hint scenario among the points")

    @TRANSPORTS
    def test_dead_hint_reroutes(self, transport):
        point, stale, victim, probes = self.dead_hint_scenario()
        with ServiceDht(8, transport=transport) as dht:
            index = loaded(dht, self.CACHED)
            index.cache.observe(stale)
            dht.fail(victim)
            result = index.lookup(point)
            assert result.bucket.covers(point)
            assert result.lookups == probes > 1
            assert stale not in index.cache  # the dead hint is evicted
            assert dht.stats.cache_hits == 0

    @TRANSPORTS
    def test_dead_search_probe_raises(self, transport):
        with ServiceDht(8, transport=transport) as dht:
            index = loaded(dht)
            dht.fail(dht.peer_of(self.leaf_key(index, BASE[0])))
            with pytest.raises(NodeUnreachableError):
                index.lookup(BASE[0])

    @TRANSPORTS
    def test_range_query_degrades_like_the_in_process_stack(
        self, transport
    ):
        local = LocalDht(8)
        bulk_load(local, BASE, CONFIG)
        with ServiceDht(8, transport=transport) as dht:
            index = loaded(dht)
            victim = dht.peer_of(self.leaf_key(index, BASE[3]))
            dht.fail(victim)
            faulty = MLightIndex(
                FaultyDht(local, DeadPeerPlan(local, victim)), CONFIG
            )
            degraded = 0
            for lookahead in (1, 2):
                for point in BASE[3:15]:
                    ours = index.range_query(box(point), lookahead)
                    theirs = faulty.range_query(box(point), lookahead)
                    assert ours.complete == theirs.complete
                    assert ours.unresolved == theirs.unresolved
                    assert ours.rounds == theirs.rounds
                    assert ours.lookups == theirs.lookups
                    assert sorted(r.key for r in ours.records) == sorted(
                        r.key for r in theirs.records
                    )
                    degraded += not ours.complete
            assert degraded > 0


def tree_of(tracer: Tracer, kinds) -> list:
    """The finished spans as nested ``[kind, name, children]`` lists,
    children in start order, restricted to *kinds*."""
    spans = [span for span in tracer.spans if span.kind in kinds]
    ids = {span.span_id for span in spans}

    def subtree(parent_id):
        children = [
            span for span in spans
            if (span.parent_id if span.parent_id in ids else None)
            == parent_id
        ]
        children.sort(key=lambda span: span.span_id)
        return [
            [span.kind, span.name, subtree(span.span_id)]
            for span in children
        ]

    return subtree(None)


class TestTracingOnTheLoop:
    def run_traced(self, dht, crossings=None):
        index = loaded(dht, tracer=Tracer())
        point = roomy_point(index)
        index.tracer.clear()
        if crossings is not None:
            del crossings[:]
        index.lookup(BASE[0])
        index.range_query(box(BASE[1]), 1)
        index.range_query(box(BASE[2]), 2)
        index.insert(point, "fresh")
        return index.tracer

    def test_traced_tree_equals_the_in_process_tree(self, crossings):
        above_the_wire = ("query", "update", "round", "dht")
        expected = tree_of(self.run_traced(LocalDht(8)), above_the_wire)
        with ServiceDht(8) as dht:
            tracer = self.run_traced(dht, crossings)
            # Tracing does not change the path: one crossing each.
            assert len(crossings) == 4
        assert tree_of(tracer, above_the_wire) == expected
        by_id = {span.span_id: span for span in tracer.spans}
        rounds = [span for span in tracer.spans if span.kind == "net"]
        assert rounds
        for span in rounds:
            chain = []
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                chain.append(span.kind)
            assert chain == ["dht", "round", "query"]

    def test_four_threads_trace_concurrently(self):
        with ServiceDht(8) as dht:
            index = loaded(dht, tracer=Tracer())
            index.tracer.clear()
            errors: list = []
            per_thread = 25

            def client(offset: int) -> None:
                try:
                    for step in range(per_thread):
                        point = BASE[(offset * per_thread + step) % 300]
                        assert index.lookup(point).bucket.covers(point)
                        assert index.range_query(box(point, 0.02)).complete
                except BaseException as error:  # reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(n,), daemon=True)
                for n in range(4)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            tracer = index.tracer
            roots = tracer.roots()
            assert len(roots) == 4 * per_thread * 2
            assert {span.kind for span in roots} == {"query"}
            # No span adopted another operation's parent: every tree is
            # a lookup over bare gets or a range query over rounds.
            shapes = {
                (kind, name, tuple(sorted({c[1] for c in children})))
                for kind, name, children in tree_of(
                    tracer, ("query", "round", "dht")
                )
            }
            assert shapes == {
                ("query", "lookup", ("get",)),
                ("query", "range", ("batched_round",)),
            }
            tracer.export_jsonl("/dev/null")  # nothing left open


class FailingService(ServiceDht):
    """A service runtime whose on-loop rewrite finds no key, or whose
    rounds find no peer, once *armed* says so."""

    armed = None

    async def ask_on_loop(self, op, key, value=None, peer=None):
        if self.armed == "rewrite" and op in (REWRITE, APPEND):
            return False
        return await super().ask_on_loop(op, key, value, peer)

    async def _gather_round(self, requests):
        if self.armed == "round":
            raise NodeUnreachableError("down")
        return await super()._gather_round(requests)


class TestFailuresUnwindTheOperation:
    """A step that fails on the loop is thrown into the operation
    there: its spans close in the task that opened them, the error
    reaches the caller, the next operation traces as usual."""

    SMALL = IndexConfig(dims=2, split_threshold=4, merge_threshold=2)

    @pytest.mark.parametrize("armed, error, failed", [
        ("rewrite", DhtKeyError, {"insert"}),
        ("round", NodeUnreachableError, {"insert", "put_many"}),
        ("round", NodeUnreachableError, {"range", "batched_round", "get_many"}),
    ])
    def test_no_span_stays_open(self, armed, error, failed):
        with FailingService(8) as dht:
            index = MLightIndex(dht, self.SMALL, tracer=Tracer())
            for point in BASE[:40]:
                index.insert(point)
            tracer = index.tracer
            full = next(b for b in index.buckets() if b.load == 4)
            low = full.region.lows
            tracer.clear()
            dht.armed = armed
            with pytest.raises(error):
                if "range" in failed:
                    index.range_query(box(BASE[1]))
                else:
                    index.insert((low[0] + 1e-9, low[1] + 1e-9))
            dht.armed = None
            assert tracer.current is None
            assert failed == {
                span.name for span in tracer.spans if span.status == "error"
            }
            tracer.clear()
            result = index.range_query(box(BASE[1]))
            assert tree_of(tracer, ("query", "round")) == [
                ["query", "range", [["round", "batched_round", []]] * result.rounds]
            ]
            tracer.export_jsonl("/dev/null")  # nothing left open


class TestLoopThreadGuards:
    def test_sync_call_on_the_loop_thread_raises_instead_of_hanging(self):
        dht = ServiceDht(2).start()
        dht.put("k", 1)

        async def handler(peer, frame):
            # The mistake: a blocking facade call from code the loop runs.
            return encode_reply(frame.request_id, dht.get("k"))

        dht.install_handler(Op.MCAST, handler)
        outcome: list = []

        def client() -> None:
            try:
                outcome.append(dht.call(Op.MCAST, "k", body="go"))
            except Exception as error:
                outcome.append(error)

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), (
            "a sync facade call on the loop thread deadlocked the runtime"
        )
        dht.close()
        (error,) = outcome
        assert isinstance(error, ReproError)
        assert "loop thread" in str(error)

    def test_load_by_peer_reads_through_the_bridge(self):
        with ServiceDht(2) as dht:
            for number in range(100):
                dht.put(f"seed-{number}", number)
            stop = threading.Event()
            failures: list = []

            def writer() -> None:
                for number in range(1500):
                    if stop.is_set():
                        break
                    dht.put(f"grow-{number}", number)

            def yielding_weight(value) -> int:
                time.sleep(0)  # let the loop thread serve a put
                return 1

            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            try:
                for _ in range(5):
                    try:
                        loads = dht.load_by_peer(yielding_weight)
                    except RuntimeError as error:
                        failures.append(error)
                        break
                    assert sum(loads.values()) >= 100
            finally:
                stop.set()
                thread.join(timeout=10)
            assert not thread.is_alive()
            assert failures == []
            assert sum(dht.load_by_peer().values()) == dht.key_count()
