"""The observability plane: tracing, registry, and the metering fixes.

Four contracts pinned here:

* **Trace correctness** — the span tree of a seeded query mirrors the
  Algorithm 2/3 probe sequence (one ``round`` span per issued wave,
  per-round DHT-primitive counts summing to the metered lookups), and
  a disabled tracer leaves results bit-identical to the seed path.
* **Meter agreement** — per-round primitive counts in the trace equal
  the ``MetricsRegistry.delta`` increments
  and, fault-free on a routed substrate, ``NetworkStats.rounds``.
* **Reset completeness** — ``reset()`` on every substrate and wrapper
  yields an all-zero snapshot (the ``backoff_time`` phase-leak class).
* **Rounds reconciliation** — ``RangeQueryResult.rounds``,
  ``DhtStats.batch_rounds`` and ``NetworkStats.rounds`` agree on
  degraded queries where retries add wire rounds inside one wave.
"""

import dataclasses
import io
import json

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import DhtKeyError, NodeUnreachableError, ReproError
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.dht.api import DhtDecorator, DhtStats
from repro.dht.chord import ChordDht
from repro.dht.faults import FaultPlan, FaultyDht
from repro.dht.kademlia import KademliaDht
from repro.dht.localhash import LocalDht
from repro.dht.pastry import PastryDht
from repro.dht.retry import RetryingDht
from repro.experiments.trace_report import (
    critical_path,
    load_spans,
    render_report,
    render_timeline,
)
from repro.net.stats import NetworkStats
from repro.obs.profile import span_timings, top_spans
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import JsonlTraceSink, Span, Tracer

SEED_POINTS = [((i % 17) / 17.0, (i % 13) / 13.0) for i in range(300)]
QUERY = ((0.1, 0.1), (0.7, 0.7))


def seeded_index(dht=None, **config_kwargs):
    dht = dht if dht is not None else LocalDht(16)
    config = IndexConfig(dims=2, **config_kwargs)
    index = MLightIndex(dht, config)
    for i, point in enumerate(SEED_POINTS):
        index.insert(point, i)
    return index


# ----------------------------------------------------------------------
# Tracer mechanics
# ----------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_and_close(self):
        tracer = Tracer()
        with tracer.span("query", "outer") as outer:
            with tracer.span("dht", "inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert tracer.spans[0].parent_id == outer.span_id
        assert outer.parent_id is None
        assert all(s.wall_end is not None for s in tracer.spans)

    def test_error_marks_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("dht", "get"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.status == "error"
        assert "boom" in span.attrs["error"]

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        tracer.event("orphan")  # outside any span: dropped
        with tracer.span("dht", "get"):
            tracer.event("retry", attempt=1)
        (span,) = tracer.spans
        assert [e["name"] for e in span.events] == ["retry"]
        assert span.events[0]["attrs"] == {"attempt": 1}

    def test_sink_receives_completion_order(self):
        emitted = []

        class Sink:
            def emit(self, span):
                emitted.append(span.name)

            def close(self):
                pass

        tracer = Tracer(sink=Sink(), keep=False)
        with tracer.span("query", "outer"):
            with tracer.span("dht", "inner"):
                pass
        assert emitted == ["inner", "outer"]
        assert tracer.spans == []  # keep=False retains nothing

    def test_export_refuses_open_spans(self, tmp_path):
        tracer = Tracer()
        with pytest.raises(ReproError):
            with tracer.span("query", "open"):
                tracer.export_jsonl(str(tmp_path / "t.jsonl"))

    def test_span_roundtrips_through_dict(self):
        span = Span(
            span_id=3, parent_id=1, kind="dht", name="get",
            wall_start=1.0, wall_end=2.5, sim_start=0.0, sim_end=4.0,
            attrs={"key": "ml:0011"},
            events=[{"name": "retry", "wall_offset": 0.1, "attrs": {}}],
        )
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone == span
        assert clone.wall_duration == 1.5
        assert clone.sim_duration == 4.0

    def test_attach_threads_whole_stack(self):
        chord = ChordDht.build(8)
        stack = RetryingDht(FaultyDht(chord, FaultPlan(0)))
        tracer = Tracer().attach(stack)
        assert stack.tracer is tracer
        assert stack.inner.tracer is tracer
        assert chord.tracer is tracer
        assert chord.network.tracer is tracer
        assert tracer.clock is chord.network.clock
        tracer.detach(stack)
        assert stack.tracer is None
        assert chord.network.tracer is None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_counter_and_histogram_instruments(self):
        registry = MetricsRegistry()
        registry.counter("probes", kind="hint").inc(3)
        hist = registry.histogram("latency")
        for value in (4.0, 1.0, 3.0, 2.0):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap["probes{kind=hint}"] == 3
        assert snap["latency.count"] == 4
        assert hist.mean == 2.5
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 4.0
        with pytest.raises(ReproError):
            registry.counter("probes", kind="hint").inc(-1)

    def test_source_must_expose_snapshot(self):
        registry = MetricsRegistry()
        with pytest.raises(ReproError):
            registry.register("bad", object())
        registry.register("dht", DhtStats())
        with pytest.raises(ReproError):
            registry.register("dht", DhtStats())

    def test_for_index_covers_stack_and_resets_everything(self):
        chord = ChordDht.build(8)
        index = seeded_index(
            RetryingDht(chord), cache_capacity=16
        )
        registry = MetricsRegistry.for_index(index)
        before = registry.snapshot()
        index.range_query(QUERY)
        delta = registry.delta(before)
        assert delta["dht.lookups"] > 0
        assert delta["net.rounds"] > 0
        assert "cache.size" in registry.snapshot()
        registry.reset()
        after = registry.snapshot()
        leaked = {
            key: value
            for key, value in after.items()
            if value and not key.startswith("cache.")
        }
        assert leaked == {}  # gauges excepted, reset means all-zero

    def test_observe_span_accumulates(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("dht", "get"):
            pass
        snap = registry.snapshot()
        assert snap["spans{kind=dht}"] == 1
        assert snap["span_seconds{kind=dht,name=get}.count"] == 1


# ----------------------------------------------------------------------
# Reset completeness (the phase-leak bugfix)
# ----------------------------------------------------------------------


WRAPPED_SUBSTRATES = [
    ("local", lambda: LocalDht(8)),
    ("chord", lambda: ChordDht.build(8)),
    ("pastry", lambda: PastryDht.build(8)),
    ("kademlia", lambda: KademliaDht.build(8)),
    ("retrying", lambda: RetryingDht(LocalDht(8), backoff_base=0.5)),
    (
        "faulty",
        lambda: FaultyDht(LocalDht(8), FaultPlan(0, slow_rate=0.3)),
    ),
    (
        "retrying-faulty-chord",
        lambda: RetryingDht(
            FaultyDht(ChordDht.build(8), FaultPlan(0, drop_rate=0.3)),
            backoff_base=0.5,
        ),
    ),
]


class TestResetCompleteness:
    @pytest.mark.parametrize(
        "name,factory",
        WRAPPED_SUBSTRATES,
        ids=[name for name, _ in WRAPPED_SUBSTRATES],
    )
    def test_reset_zeroes_every_snapshot_key(self, name, factory):
        dht = factory()
        for i in range(30):
            try:
                dht.put(f"k{i}", i)
                dht.get(f"k{i}")
                dht.get_many_outcomes([f"k{i}", f"k{i - 1}"])
            except Exception:
                pass  # injected faults may exhaust the retry budget
        assert any(dht.stats.snapshot().values())
        dht.stats.reset()
        zeroed = dht.stats.snapshot()
        assert all(value == 0 for value in zeroed.values()), zeroed

    def test_backoff_time_lives_on_stats(self):
        # The concrete leak: backoff_time used to be an instance
        # attribute outside DhtStats, surviving stats.reset() across
        # experiment phases.
        dht = RetryingDht(
            FaultyDht(LocalDht(8), FaultPlan(0, drop_rate=0.6)),
            attempts=4,
            backoff_base=0.5,
        )
        for i in range(20):
            try:
                dht.get(f"k{i}")
            except Exception:
                pass
        assert dht.backoff_time > 0
        assert dht.stats.snapshot()["backoff_time"] == dht.backoff_time
        dht.stats.reset()
        assert dht.backoff_time == 0.0

    def test_network_stats_reset_covers_per_type(self):
        stats = NetworkStats()
        stats.record_message("get", 10)
        stats.record_round(3, 1.5)
        stats.record_drop()
        stats.record_rpc()
        assert stats.per_type == {"get": 1}
        stats.reset()
        assert all(value == 0 for value in stats.snapshot().values())
        assert stats.per_type == {}

    def test_new_dhtstats_counter_cannot_be_missed(self):
        # snapshot()/reset() are derived from dataclasses.fields(), so
        # the keysets agree by construction.
        stats = DhtStats()
        snap = stats.snapshot()
        assert set(snap) == {
            f.name for f in dataclasses.fields(DhtStats)
        }


# ----------------------------------------------------------------------
# Full-keyset phase delta (the under-reporting bugfix)
# ----------------------------------------------------------------------


def dht_registry(dht):
    registry = MetricsRegistry()
    registry.register("dht", dht.stats)
    return registry


class TestCostMeterKeyset:
    def test_delta_covers_full_snapshot_keyset(self):
        dht = LocalDht(8)
        registry = dht_registry(dht)
        before = registry.snapshot()
        dht.put_many([("a", 1), ("b", 2)])
        dht.get_many_outcomes(["a", "b"])
        delta = registry.delta(before)
        assert set(delta) == {f"dht.{key}" for key in dht.stats.snapshot()}
        assert delta["dht.batch_rounds"] == 2
        assert delta["dht.batch_ops"] == 4
        assert delta["dht.lookups"] == 4
        # Untouched counters read zero; unknown names are errors.
        assert delta["dht.retries"] == 0
        with pytest.raises(KeyError):
            delta["dht.not_a_counter"]

    def test_retry_and_fault_counters_metered(self):
        dht = RetryingDht(
            FaultyDht(LocalDht(8), FaultPlan(0, drop_rate=0.5)),
            attempts=5,
            backoff_base=0.25,
        )
        registry = dht_registry(dht)
        before = registry.snapshot()
        for i in range(10):
            try:
                dht.get(f"k{i}")
            except Exception:
                pass
        delta = registry.delta(before)
        assert delta["dht.retries"] > 0
        assert delta["dht.faults_dropped"] > 0
        assert delta["dht.backoff_waits"] > 0
        assert delta["dht.backoff_time"] > 0


# ----------------------------------------------------------------------
# Trace correctness on seeded queries
# ----------------------------------------------------------------------


class TestTraceShape:
    def test_range_span_tree_matches_probe_sequence(self):
        index = seeded_index(tracing=True)
        tracer = index.tracer
        tracer.clear()
        result = index.range_query(QUERY)
        (query_span,) = [
            s for s in tracer.roots() if s.kind == "query"
        ]
        rounds = [
            s for s in tracer.children_of(query_span) if s.kind == "round"
        ]
        # One round span per issued wave (Algorithms 2/3 recursion
        # levels plus fallback-chain steps).
        assert len(rounds) == result.rounds
        # Per-round primitive counts sum to the metered lookups.
        probed = 0
        for round_span in rounds:
            for dht_span in tracer.children_of(round_span):
                assert dht_span.kind == "dht"
                probed += dht_span.attrs.get("count", 1)
        assert probed == result.lookups
        assert query_span.attrs["lookups"] == result.lookups
        assert query_span.attrs["records"] == len(result.records)

    def test_disabled_tracing_is_bit_identical_to_seed(self):
        traced = seeded_index(tracing=True)
        plain = seeded_index(tracing=False)
        assert plain.tracer is None
        r_traced = traced.range_query(QUERY)
        r_plain = plain.range_query(QUERY)
        assert r_traced == r_plain
        assert plain.dht.stats.snapshot() == traced.dht.stats.snapshot()
        assert traced.knn((0.4, 0.4), 5) == plain.knn((0.4, 0.4), 5)
        assert plain.dht.stats.snapshot() == traced.dht.stats.snapshot()

    def test_lookup_span_records_cache_hint_events(self):
        index = seeded_index(cache_capacity=32, tracing=True)
        point = SEED_POINTS[0]
        index.lookup(point)  # warm the cache
        index.tracer.clear()
        index.lookup(point)  # hinted path
        (span,) = [s for s in index.tracer.roots() if s.name == "lookup"]
        assert span.attrs["probes"] == 1
        hits = [
            c
            for c in index.tracer.children_of(span)
            if c.kind == "dht"
        ]
        assert len(hits) == 1

    def test_jsonl_roundtrip_through_trace_report(self, tmp_path):
        index = seeded_index(tracing=True)
        index.tracer.clear()
        index.range_query(QUERY)
        path = str(tmp_path / "trace.jsonl")
        count = index.tracer.export_jsonl(path)
        spans = load_spans(path)
        assert len(spans) == count
        assert spans == index.tracer.spans
        report = render_report(spans)
        assert "query:range" in report
        assert "Critical path" in report
        timeline = render_timeline(spans)
        assert "round:batched_round" in timeline

    def test_streaming_sink_matches_retained_spans(self):
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer)
        tracer = Tracer(sink=sink)
        dht = LocalDht(8)
        tracer.attach(dht)
        dht.put("x", 1)
        dht.get("x")
        sink.close()
        streamed = [
            Span.from_dict(json.loads(line))
            for line in buffer.getvalue().splitlines()
        ]
        assert streamed == tracer.spans

    def test_profile_self_time_subtracts_children(self):
        tracer = Tracer()
        with tracer.span("query", "outer"):
            with tracer.span("dht", "inner"):
                pass
        timings = {
            t.span.name: t for t in span_timings(tracer.spans)
        }
        outer = timings["outer"]
        inner = timings["inner"]
        assert outer.wall_self <= outer.wall_total
        assert outer.wall_self == pytest.approx(
            outer.wall_total - inner.wall_total
        )
        assert top_spans(tracer.spans, 1)[0].span.name in {
            "outer", "inner",
        }


# ----------------------------------------------------------------------
# Acceptance: trace counts == registry deltas == NetworkStats.rounds
# ----------------------------------------------------------------------


class FailingStep(DhtDecorator):
    """Raises *error* from the step kind *armed* names, once armed."""

    armed = None
    error = None

    def perform(self, step):
        if self.armed == step[0]:
            raise self.error
        return self.inner.perform(step)


class TestFailuresUnwindTheOperation:
    """Whatever a step raises is thrown into the operation, so a span
    suspended at its ``yield`` exits: nothing stays open and the next
    operation's tree is well-formed."""

    @pytest.mark.parametrize("armed, error", [
        ("rewrite", DhtKeyError("absent")),
        ("put_many", NodeUnreachableError("down")),
        ("get_many", ReproError("boom")),
    ])
    def test_no_span_stays_open(self, armed, error):
        dht = FailingStep(LocalDht(16))
        index = seeded_index(
            dht, split_threshold=4, merge_threshold=2, tracing=True
        )
        tracer = index.tracer
        full = next(b for b in index.buckets() if b.load == 4)
        low = full.region.lows
        tracer.clear()
        dht.armed, dht.error = armed, error
        with pytest.raises(type(error)):
            if armed == "get_many":
                index.range_query(QUERY)
            else:
                index.insert((low[0] + 1e-9, low[1] + 1e-9), "splits")
        assert tracer.current is None
        failed = {span.name for span in tracer.spans if span.status == "error"}
        assert failed == (
            {"range", "batched_round"} if armed == "get_many" else {"insert"}
        )
        dht.armed = None
        tracer.clear()
        result = index.range_query(QUERY)
        (root,) = tracer.roots()
        assert (root.kind, root.name) == ("query", "range")
        assert len(tracer.children_of(root)) == result.rounds


class TestMeterAgreement:
    def test_trace_equals_meters_on_routed_substrate(self):
        chord = ChordDht.build(12)
        index = seeded_index(chord, tracing=True)
        tracer = index.tracer
        tracer.clear()
        registry = MetricsRegistry.for_index(index)
        before = registry.snapshot()
        result = index.range_query(QUERY)
        delta = registry.delta(before)
        (query_span,) = [s for s in tracer.roots() if s.kind == "query"]
        rounds = [
            s for s in tracer.children_of(query_span) if s.kind == "round"
        ]
        per_round = [
            sum(
                c.attrs.get("count", 1)
                for c in tracer.children_of(r)
                if c.kind == "dht"
            )
            for r in rounds
        ]
        assert sum(per_round) == delta["dht.lookups"] == result.lookups
        assert len(rounds) == result.rounds
        # Fault-free on the batched plane: every wave is exactly one
        # batch round and one simulated message round.
        assert delta["dht.batch_rounds"] == result.batch_rounds
        assert delta["net.rounds"] == result.batch_rounds
        net_spans = [s for s in tracer.spans if s.kind == "net"]
        assert len(net_spans) == delta["net.rounds"]


# ----------------------------------------------------------------------
# Rounds reconciliation under faults (the disagreement bugfix)
# ----------------------------------------------------------------------


class TestRoundsReconciliation:
    def make_faulty_index(self, drop_rate=0.25, seed=3, **config_kwargs):
        chord = ChordDht.build(12)
        stack = RetryingDht(
            FaultyDht(chord, FaultPlan(seed, drop_rate=drop_rate)),
            attempts=3,
        )
        config = IndexConfig(dims=2, **config_kwargs)
        faulty = stack.inner
        with faulty.suspended():
            dht_points = list(SEED_POINTS)
            bulk_load(chord, dht_points, config)
            index = MLightIndex(stack, config)
        return index, chord

    def test_retry_rounds_reconciled_into_result(self):
        index, chord = self.make_faulty_index(cache_capacity=16)
        stats = index.dht.stats
        found_retry_wave = False
        for seed_query in range(8):
            lo = 0.05 * seed_query
            before_batch = stats.batch_rounds
            before_net = chord.network.stats.rounds
            result = index.range_query(((lo, lo), (lo + 0.5, lo + 0.5)))
            d_batch = stats.batch_rounds - before_batch
            d_net = chord.network.stats.rounds - before_net
            # The reconciliation contract: the result's latency meter
            # counts every wire round, retries included.
            assert result.batch_rounds == d_batch
            assert result.rounds == max(
                result.rounds, result.batch_rounds
            )
            assert result.rounds >= result.batch_rounds
            # A sub-batch killed entirely at the injection boundary
            # never reaches the wire, so net rounds can only lag.
            assert d_net <= d_batch
            if stats.retries and result.rounds > 0:
                found_retry_wave = found_retry_wave or (
                    d_batch > 0 and result.rounds == d_batch
                )
        assert stats.retries > 0  # the sweep actually exercised retries
        assert found_retry_wave

    def test_degraded_query_with_dead_cache_hint(self):
        # The original disagreement: a cached hint pointing at a dead
        # bucket is evicted mid-round and the lookup re-routes, adding
        # a wave — rounds, batch_rounds and net rounds must still be
        # reconciled rather than drifting apart.
        chord = ChordDht.build(12)
        config = IndexConfig(dims=2, cache_capacity=16)
        bulk_load(chord, list(SEED_POINTS), config)
        probe = MLightIndex(chord, config)
        target = probe.lookup((0.35, 0.45))  # warms the cache
        from repro.core.keys import bucket_key
        from repro.core.naming import naming_function

        dead_key = bucket_key(
            naming_function(target.bucket.label, config.dims)
        )
        stack = RetryingDht(
            FaultyDht(
                chord, FaultPlan(0, dead_keys=[dead_key])
            ),
            attempts=2,
        )
        index = MLightIndex(stack, config, cache=probe.cache)
        stats = index.dht.stats
        before_batch = stats.batch_rounds
        result = index.range_query(((0.3, 0.4), (0.4, 0.5)))
        d_batch = stats.batch_rounds - before_batch
        assert result.batch_rounds == d_batch
        assert result.rounds >= result.batch_rounds
        # The hinted probe died; coverage of its subregion is either
        # re-proven through other leaves or reported unresolved —
        # never silently dropped.
        if not result.complete:
            assert result.unresolved

    def test_fault_free_equality_is_preserved(self):
        # The reconciliation must not disturb the seed contract:
        # fault-free batched queries satisfy rounds == batch_rounds ==
        # simulated rounds exactly.
        chord = ChordDht.build(12)
        index = seeded_index(chord)
        stats = index.dht.stats
        before_batch = stats.batch_rounds
        before_net = chord.network.stats.rounds
        result = index.range_query(QUERY)
        assert result.batch_rounds == stats.batch_rounds - before_batch
        assert result.rounds == result.batch_rounds
        assert (
            chord.network.stats.rounds - before_net == result.batch_rounds
        )


# ----------------------------------------------------------------------
# Critical path rendering
# ----------------------------------------------------------------------


class TestCriticalPath:
    def test_critical_path_follows_dominant_child(self):
        index = seeded_index(ChordDht.build(8), tracing=True)
        tracer = index.tracer
        tracer.clear()
        index.range_query(QUERY)
        (root,) = [s for s in tracer.roots() if s.kind == "query"]
        chain = critical_path(tracer.spans, root)
        assert chain[0] is root
        kinds = [span.kind for span in chain]
        assert kinds == sorted(
            kinds, key=["query", "update", "round", "dht", "net"].index
        )
        assert chain[-1].kind == "net"


# ----------------------------------------------------------------------
# Peer-runtime fault accounting
# ----------------------------------------------------------------------


class TestDistributedFaultAccounting:
    """The peer runtime over FaultyDht + RetryingDht.

    Owners are resolved natively, from the forwarding peer's overlay
    position, so the wrappers see only a peer's fallback ``GET`` steps
    — which ``dht.drive`` runs through them, retries included.
    """

    def make_stack(self, drop_rate=0.0, seed=3, attempts=3):
        from repro.mcast import MulticastRuntime

        chord = ChordDht.build(12)
        stack = RetryingDht(
            FaultyDht(chord, FaultPlan(seed, drop_rate=drop_rate)),
            attempts=attempts,
        )
        config = IndexConfig(
            dims=2, split_threshold=10, merge_threshold=5
        )
        with stack.inner.suspended():
            index = MLightIndex(stack, config)
            for i, point in enumerate(SEED_POINTS):
                index.insert(point, i)
        runtime = MulticastRuntime(stack, 2, config.max_depth)
        return index, runtime, stack, chord

    def queries(self):
        from repro.common.geometry import Region

        return [
            Region(
                (0.05 * i, 0.05 * i), (0.05 * i + 0.5, 0.05 * i + 0.5)
            )
            for i in range(8)
        ]

    def test_wrapper_chain_construction_and_faultfree_equality(self):
        """A runtime built over the full wrapper stack behaves exactly
        like the client engine when no faults fire."""
        index, runtime, stack, chord = self.make_stack(drop_rate=0.0)
        for query in self.queries():
            engine_result = index.range_query(query)
            result = runtime.query(query)
            assert result.complete
            assert sorted(r.key for r in result.records) == sorted(
                r.key for r in engine_result.records
            )
            assert result.lookups == engine_result.lookups
            assert result.rounds == engine_result.rounds

    def test_batch_rounds_published_equals_stats_delta(self):
        """``result.batch_rounds`` is the whole-query stats delta — one
        per forward, summed over the tree — not a reconstruction."""
        index, runtime, stack, chord = self.make_stack(drop_rate=0.25)
        stats = stack.stats
        for query in self.queries():
            before = stats.batch_rounds
            result = runtime.query(query)
            assert result.batch_rounds == stats.batch_rounds - before

    def test_unreachable_owner_degrades_to_unresolved(self):
        """A hop whose owner's agent stays unreachable costs exactly
        the subregion it carried, instead of aborting the query:
        everything outside it is answered."""
        from repro.common.geometry import Region
        from repro.core.keys import bucket_key
        from repro.core.naming import naming_function
        from repro.core.rangequery import compute_lca
        from repro.mcast import MCAST_SUFFIX

        wide = Region((0.1, 0.1), (0.9, 0.9))
        index, runtime, stack, chord = self.make_stack()
        probe = runtime.query(wide)
        owner = {
            label: chord.peer_of(bucket_key(naming_function(label, 2)))
            for label in probe.visited_leaves
        }
        lca = compute_lca(wide, 2, runtime.max_depth)
        spared = {
            chord.peers()[0],  # the initiator
            chord.peer_of(bucket_key(naming_function(lca, 2))),
        }
        victim = min(set(owner.values()) - spared)
        chord.network.partition(
            {peer + MCAST_SUFFIX for peer in chord.peers() if peer != victim},
            {victim + MCAST_SUFFIX},
        )
        result = runtime.query(wide)
        assert not result.complete
        assert result.unresolved
        assert not [
            label for label in result.visited_leaves
            if owner[label] == victim
        ]

        def lost(record):
            return any(
                region.contains_point_closed(record.key)
                for region in result.unresolved
            )

        survivors = sorted(r.key for r in result.records)
        assert survivors == sorted(
            r.key for r in probe.records if not lost(r)
        )
        assert 0 < len(survivors) < len(probe.records)
