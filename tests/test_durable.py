"""The durability plane: backends, recovery, restart, churn fixes."""

import threading

import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveDht
from repro.common.config import IndexConfig
from repro.common.errors import (
    CorruptValueError,
    ReproError,
    UnknownDurabilityError,
)
from repro.common.rng import derive_seed, make_rng
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.dht.chord import ChordDht
from repro.dht.churn import generate_schedule, run_churn
from repro.dht.durable import (
    BACKENDS,
    AppendLogBackend,
    backend_path,
    create_store_backend,
    register_store_backend,
    resolve_data_dir,
    store_backend_kinds,
)
from repro.dht.faults import FaultPlan, FaultyDht
from repro.dht.kademlia import KademliaDht
from repro.dht.localhash import LocalDht
from repro.dht.pastry import PastryDht
from repro.dht.retry import RetryingDht
from repro.dht.storage import PeerStore
from repro.obs.trace import Tracer
from repro.runtime import RuntimeConfig, create_dht
from repro.service.wire import FrameDecoder


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


#: The contract of :class:`DurableBackend`, over every backend that
#: ships; a new one joins this list.
BACKEND_CLASSES = [AppendLogBackend]


@pytest.mark.parametrize("backend_cls", BACKEND_CLASSES)
class TestBackendRoundTrip:
    def test_put_remove_replay(self, backend_cls, tmp_path):
        backend = backend_cls(tmp_path / "peer")
        backend.record_put("a", b"alpha")
        backend.record_put("b", b"beta")
        backend.record_put("a", b"alpha-2")  # overwrite wins
        backend.record_remove("b")
        backend.close()
        fresh = backend_cls(tmp_path / "peer")
        assert fresh.replay() == {"a": b"alpha-2"}

    def test_replay_of_empty_backend(self, backend_cls, tmp_path):
        backend = backend_cls(tmp_path / "peer")
        assert backend.replay() == {}

    def test_closed_backend_rejects_writes(self, backend_cls, tmp_path):
        backend = backend_cls(tmp_path / "peer")
        backend.close()
        with pytest.raises(ReproError):
            backend.record_put("a", b"alpha")
        with pytest.raises(ReproError):
            backend.record_remove("a")

    def test_wipe_deletes_durable_state(self, backend_cls, tmp_path):
        backend = backend_cls(tmp_path / "peer")
        backend.record_put("a", b"alpha")
        backend.wipe()
        assert backend_cls(tmp_path / "peer").replay() == {}

    def test_compact_drops_dead_records(self, backend_cls, tmp_path):
        backend = backend_cls(tmp_path / "peer")
        for index in range(10):
            backend.record_put(f"k{index}", b"x" * index)
        backend.record_remove("k0")
        backend.compact([("k1", b"x"), ("k9", b"y")])
        backend.close()
        assert backend_cls(tmp_path / "peer").replay() == {
            "k1": b"x", "k9": b"y",
        }


class TestAppendLog:
    def test_log_is_a_plain_wire_frame_stream(self, tmp_path):
        """A durable log decodes with nothing beyond FrameDecoder —
        fed one byte at a time, every record still comes out."""
        backend = AppendLogBackend(tmp_path / "peer")
        backend.record_put("a", b"alpha")
        backend.record_put("b", b"b" * 200)
        backend.record_remove("a")
        backend.close()
        data = backend.path.read_bytes()
        decoder = FrameDecoder()
        frames = []
        for offset in range(len(data)):
            frames.extend(decoder.feed(data[offset:offset + 1]))
        assert [frame.body[0] for frame in frames] == ["a", "b", "a"]
        assert frames[1].body[1] == b"b" * 200

    @pytest.mark.parametrize("cut", [1, 7, 20])
    def test_torn_tail_recovers_to_intact_prefix(self, tmp_path, cut):
        backend = AppendLogBackend(tmp_path / "peer")
        backend.record_put("a", b"alpha")
        backend.record_put("b", b"beta")
        before_tail = backend.path.stat().st_size
        backend.record_put("c", b"gamma")
        backend.close()
        tail = backend.path.stat().st_size - before_tail
        assert 0 < cut < tail
        with open(backend.path, "ab") as handle:
            handle.truncate(backend.path.stat().st_size - cut)
        fresh = AppendLogBackend(tmp_path / "peer")
        assert fresh.replay() == {"a": b"alpha", "b": b"beta"}
        # The torn tail was compacted away: it cannot resurrect later,
        # and the log journals on cleanly.
        fresh.record_put("d", b"delta")
        fresh.close()
        assert AppendLogBackend(tmp_path / "peer").replay() == {
            "a": b"alpha", "b": b"beta", "d": b"delta",
        }

    def test_corrupt_middle_byte_truncates_there(self, tmp_path):
        backend = AppendLogBackend(tmp_path / "peer")
        backend.record_put("a", b"alpha")
        first = backend.path.stat().st_size
        backend.record_put("b", b"beta")
        backend.record_put("c", b"gamma")
        backend.close()
        data = bytearray(backend.path.read_bytes())
        data[first + 2] ^= 0xFF  # mangle the second record
        backend.path.write_bytes(bytes(data))
        assert AppendLogBackend(tmp_path / "peer").replay() == {
            "a": b"alpha"
        }

    def test_should_compact_tracks_journal_debt(self, tmp_path):
        backend = AppendLogBackend(tmp_path / "peer")
        for _ in range(65):
            backend.record_put("same", b"v")
        assert backend.should_compact(live_keys=1)
        backend.compact([("same", b"v")])
        assert not backend.should_compact(live_keys=1)


class TestRegistry:
    def test_shipped_kinds(self):
        assert store_backend_kinds() == ("log",)

    def test_unknown_kind_raises_typed_error(self, tmp_path):
        with pytest.raises(UnknownDurabilityError, match="carbonite"):
            create_store_backend("carbonite", tmp_path / "peer")

    def test_register_custom_backend(self, tmp_path):
        register_store_backend("custom-log", AppendLogBackend)
        try:
            backend = create_store_backend("custom-log", tmp_path / "p")
            assert isinstance(backend, AppendLogBackend)
            # The config surfaces validate against the live registry.
            RuntimeConfig(durability="custom-log")
            IndexConfig(durability="custom-log")
        finally:
            del BACKENDS.table["custom-log"]

    def test_empty_kind_rejected(self):
        with pytest.raises(ReproError):
            register_store_backend("", AppendLogBackend)

    def test_resolve_data_dir_mints_unique_tmp_dirs(self):
        first = resolve_data_dir(None, "test")
        second = resolve_data_dir(None, "test")
        assert first != second
        assert first.is_dir() and second.is_dir()

    def test_resolve_data_dir_pins_explicit_dir(self, tmp_path):
        pinned = tmp_path / "nested" / "dir"
        assert resolve_data_dir(pinned, "test") == pinned
        assert pinned.is_dir()

    def test_substrates_never_share_a_default_data_dir(self):
        first = ChordDht.build(4, durability="log")
        second = ChordDht.build(4, durability="log")
        assert first.data_dir != second.data_dir


# ----------------------------------------------------------------------
# PeerStore journaling and recovery
# ----------------------------------------------------------------------


class TestPeerStoreDurability:
    def test_mutations_journal_and_recover(self, tmp_path):
        backend = AppendLogBackend(tmp_path / "peer")
        store = PeerStore(backend=backend)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        store.remove("a")
        store.close_backend()
        recovered = PeerStore.recover(AppendLogBackend(tmp_path / "peer"))
        assert len(recovered) == 1
        assert recovered.get("b") == {"v": 2}

    def test_pop_range_journals_removals(self, tmp_path):
        backend = AppendLogBackend(tmp_path / "peer")
        store = PeerStore(backend=backend)
        store.put("a", 1)
        store.put("b", 2)
        store.pop_range(lambda digest: True)
        store.close_backend()
        recovered = PeerStore.recover(AppendLogBackend(tmp_path / "peer"))
        assert len(recovered) == 0

    def test_recover_replays_nothing_back_into_the_log(self, tmp_path):
        backend = AppendLogBackend(tmp_path / "peer")
        store = PeerStore(backend=backend)
        store.put("a", 1)
        store.close_backend()
        recovered = PeerStore.recover(AppendLogBackend(tmp_path / "peer"))
        assert recovered.backend._records == 1  # replay journaled nothing

    def test_journal_debt_triggers_compaction(self, tmp_path):
        backend = AppendLogBackend(tmp_path / "peer")
        store = PeerStore(backend=backend)
        for round_no in range(70):
            store.put("hot", {"round": round_no})
        assert backend._records < 70  # compaction ran mid-stream
        store.close_backend()
        recovered = PeerStore.recover(AppendLogBackend(tmp_path / "peer"))
        assert recovered.get("hot") == {"round": 69}

    def test_wipe_backend_prevents_resurrection(self, tmp_path):
        backend = AppendLogBackend(tmp_path / "peer")
        store = PeerStore(backend=backend)
        store.put("a", 1)
        store.wipe_backend()
        recovered = PeerStore.recover(AppendLogBackend(tmp_path / "peer"))
        assert len(recovered) == 0

    def test_torn_blob_on_recover_raises_typed_error(self):
        class TornBackend:
            def replay(self):
                return {"a": b"not a pickle"}

        with pytest.raises(CorruptValueError) as caught:
            PeerStore.recover(TornBackend())
        assert isinstance(caught.value, ReproError)


class TestLocalDhtBatchesJournalInline:
    """Elements of one batch that share an owner share its journal,
    which nothing locks: a batch must run on the calling thread."""

    def test_put_many_journals_on_the_callers_thread(self):
        journalled_on = []

        class RecordingBackend(AppendLogBackend):
            def record_put(self, key, blob):
                journalled_on.append(threading.get_ident())
                super().record_put(key, blob)

        register_store_backend("recording", RecordingBackend)
        try:
            dht = LocalDht(2, durability="recording")
            dht.put_many([(f"k{index}", index) for index in range(8)])
        finally:
            del BACKENDS.table["recording"]
        assert journalled_on == [threading.get_ident()] * 8

    def test_put_many_rounds_replay_to_the_live_state(self):
        """200 rounds of 16 overwrites on one peer cross the compaction
        threshold many times mid-batch."""
        dht = LocalDht(1, durability="log")
        for round_no in range(200):
            dht.put_many(
                [(f"k{index}", (round_no, index)) for index in range(16)]
            )
        recovered = PeerStore.recover(
            AppendLogBackend(backend_path(dht.data_dir, "peer-0000"))
        )
        assert dict(recovered.items()) == dict(dht.items())
        assert len(recovered) == 16


# ----------------------------------------------------------------------
# Crash -> restart -> replay on every overlay
# ----------------------------------------------------------------------


OVERLAY_BUILDERS = [
    lambda d: ChordDht.build(8, durability=d),
    lambda d: KademliaDht.build(8, durability=d),
    lambda d: PastryDht.build(8, durability=d),
]


@pytest.mark.parametrize(
    "build", OVERLAY_BUILDERS, ids=["chord", "kademlia", "pastry"]
)
@pytest.mark.parametrize("durability", ["log"])
class TestRestartAllOverlays:
    def test_crash_restart_replay_round_trip(
        self, build, durability
    ):
        dht = build(durability)
        for index in range(60):
            dht.put(f"k{index}", {"v": index})
        victim = dht.peer_of("k0")
        dht.fail(victim)
        # Writes while the victim is down land on its neighbours...
        for index in range(60, 72):
            dht.put(f"k{index}", {"v": index})
        dht.restart(victim)
        # ...and every key, old and new, is readable afterwards.
        assert all(
            dht.get(f"k{index}") == {"v": index} for index in range(72)
        )
        stats = dht.stats
        assert stats.restarts == 1
        assert stats.restart_replayed > 0
        assert dht.key_count() == 72


class TestRestartProtocol:
    def test_restart_without_durability_raises(self):
        dht = ChordDht.build(4)
        dht.fail(dht.peers()[0])
        with pytest.raises(ReproError, match="durab"):
            dht.restart("chord-0000")

    def test_restart_of_live_peer_raises(self):
        dht = ChordDht.build(4, durability="log")
        with pytest.raises(ReproError, match="live"):
            dht.restart(dht.peers()[0])

    def test_restart_unsupported_on_local_oracle(self):
        dht = LocalDht(4, durability="log")
        with pytest.raises(ReproError, match="restart"):
            dht.restart(dht.peers()[0])

    def test_repair_traffic_tracks_ownership_churn_not_store_size(self):
        """Nothing written during the outage -> zero repair bytes,
        however many keys the store holds (the Theorem 5 analogue)."""
        dht = ChordDht.build(8, durability="log")
        for index in range(200):
            dht.put(f"k{index}", {"v": index})
        victim = dht.peer_of("k0")
        dht.fail(victim)
        dht.restart(victim)
        assert dht.stats.restart_replayed > 0
        assert dht.stats.restart_reconciled == 0
        assert dht.stats.restart_rehomed == 0
        assert dht.stats.restart_repair_bytes == 0
        assert all(
            dht.get(f"k{index}") == {"v": index} for index in range(200)
        )

    def test_rehome_when_ownership_moved_while_down(self):
        from repro.dht.hashing import node_id_from_name, ring_between

        dht = ChordDht.build(8, durability="log")
        for index in range(200):
            dht.put(f"k{index}", {"v": index})
        victim = dht.peer_of("k0")
        vnode = dht.node(victim)
        predecessor = vnode.predecessor.ident
        joiner = next(
            f"joiner-{attempt}"
            for attempt in range(100_000)
            if ring_between(
                node_id_from_name(f"joiner-{attempt}"),
                predecessor,
                vnode.ident,
            )
        )
        dht.fail(victim)
        dht.join(joiner)
        dht.stabilize_all(2)
        dht.restart(victim)
        assert dht.stats.restart_rehomed > 0
        assert dht.stats.restart_repair_bytes > 0
        assert all(
            dht.get(f"k{index}") == {"v": index} for index in range(200)
        )

    def test_restart_emits_a_span(self):
        dht = ChordDht.build(4, durability="log")
        dht.put("k", 1)
        victim = dht.peer_of("k")
        dht.fail(victim)
        dht.tracer = Tracer()
        dht.restart(victim)
        spans = [s for s in dht.tracer.spans if s.name == "restart"]
        assert len(spans) == 1
        assert spans[0].attrs["peer"] == victim

    def test_restart_across_substrate_instances(self, tmp_path):
        """A pinned data_dir makes durable state outlive the object
        that wrote it — the real process-crash shape."""
        first = ChordDht.build(4, durability="log", data_dir=tmp_path)
        for index in range(20):
            first.put(f"k{index}", index)
        holdings = {
            name: set(first.node(name).store.keys())
            for name in first.peers()
        }
        for name in first.peers():
            first.node(name).store.close_backend()
        second = ChordDht(durability="log", data_dir=tmp_path)
        # Rebuild the ring peer by peer from the logs alone.
        for name in holdings:
            second._nodes[name] = type(first.node(name))(
                name,
                second.network,
                store=PeerStore.recover(
                    create_store_backend(
                        "log", backend_path(tmp_path, name)
                    )
                ),
            )
        second.rewire()
        assert all(
            second.get(f"k{index}") == index for index in range(20)
        )

    @pytest.mark.parametrize("transport", ["asyncio", "tcp"])
    def test_service_runtime_restart(self, transport):
        dht = create_dht(RuntimeConfig(
            kind=transport, n_peers=3, durability="log"
        ))
        try:
            for index in range(12):
                dht.put(f"k{index}", {"v": index})
            victim = dht.peer_of("k0")
            dht.fail(victim)
            with pytest.raises(ReproError):
                dht.get("k0")
            dht.restart(victim)
            assert all(
                dht.get(f"k{index}") == {"v": index}
                for index in range(12)
            )
            assert dht.stats.restarts == 1
            assert dht.key_count() == 12
        finally:
            dht.close()

    @pytest.mark.parametrize("transport", ["asyncio", "tcp"])
    def test_service_membership_before_the_first_operation(
        self, make_dht, transport
    ):
        """The runtime starts lazily; every peer ``peers()`` lists is a
        member before it has."""
        dht = make_dht(kind=transport, n_peers=4, durability="log")
        with pytest.raises(ReproError, match="already live"):
            dht.restart("peer-0000")
        dht = make_dht(kind=transport, n_peers=4, durability="log")
        with pytest.raises(ReproError, match="unknown service peer"):
            dht.fail("ghost")
        dht.fail("peer-0000")
        with pytest.raises(ReproError, match="already down"):
            dht.fail("peer-0000")
        dht.restart("peer-0000")
        dht.put("k", 1)
        assert dht.get("k") == 1

    @pytest.mark.parametrize("transport", ["asyncio", "tcp"])
    def test_service_replay_keeps_bytes_until_the_first_read(
        self, make_dht, store_builds, transport
    ):
        """Replay hands each journalled blob back as a bucket that is
        still its bytes: no record store is built by the restart, nor
        by lookups routed through the recovered peer — only by the
        client that finally asks for records."""
        dht = make_dht(kind=transport, n_peers=3, durability="log")
        config = IndexConfig(runtime=transport, durability="log")
        rng = make_rng(derive_seed(14, "replay-lazy"))
        points = [(rng.random(), rng.random()) for _ in range(500)]
        bulk_load(dht, points[:400], config)
        index = MLightIndex(dht, config)
        index.insert_many(points[400:])
        victim = max(dht.load_by_peer(), key=dht.load_by_peer().get)
        held = dht.load_by_peer()[victim]
        assert held > 0
        dht.fail(victim)
        store_builds.clear()
        dht.restart(victim)
        assert dht.stats.restart_replayed == held
        for point in points[::25]:
            assert index.lookup(point).bucket.covers(point)
        assert index.total_records() == len(points)
        assert store_builds == []
        found = index.range_query(((0.0, 0.0), (1.0, 1.0)))
        assert found.complete
        assert sorted(r.key for r in found.records) == sorted(points)
        assert store_builds and set(store_builds) == {"columnar"}
        index.check_invariants()

    def test_leave_then_restart_does_not_resurrect(self):
        """Graceful leave hands keys off and wipes the log; a later
        restart of that peer rejoins it empty — the wiped backend must
        not bring stale copies back."""
        dht = ChordDht.build(6, durability="log")
        for index in range(40):
            dht.put(f"k{index}", index)
        victim = dht.peer_of("k0")
        dht.leave(victim)
        dht.restart(victim)
        assert dht.stats.restart_replayed == 0
        assert dht.key_count() == 40
        assert all(dht.get(f"k{i}") == i for i in range(40))


# ----------------------------------------------------------------------
# Membership through the wrapper chain (ROADMAP 4-ii)
# ----------------------------------------------------------------------


def _durable_chord():
    return create_dht(RuntimeConfig(
        kind="sim", overlay="chord", n_peers=8, durability="log"
    ))


WRAPPERS = {
    "retry": lambda inner: RetryingDht(inner),
    "faults": lambda inner: FaultyDht(inner, FaultPlan(seed=1)),
    "adaptive": lambda inner: AdaptiveDht(inner, AdaptiveConfig()),
    "retry-over-faults": lambda inner: RetryingDht(
        FaultyDht(inner, FaultPlan(seed=1))
    ),
}


@pytest.mark.parametrize("wrap", WRAPPERS.values(), ids=WRAPPERS.keys())
class TestMembershipThroughWrappers:
    def test_fail_and_restart_reach_the_durable_substrate(self, wrap):
        dht = wrap(_durable_chord())
        for index in range(40):
            dht.put(f"k{index}", {"v": index})
        victim = dht.peer_of("k0")
        dht.fail(victim)
        assert victim not in dht.peers()
        dht.restart(victim)
        assert victim in dht.peers()
        assert dht.stats.restarts == 1
        assert dht.stats.restart_replayed > 0
        assert all(
            dht.get(f"k{index}") == {"v": index} for index in range(40)
        )

    def test_restart_is_one_span_on_the_shared_tracer(self, wrap):
        dht = wrap(_durable_chord())
        dht.put("k", 1)
        victim = dht.peer_of("k")
        dht.fail(victim)
        dht.tracer = Tracer()
        dht.restart(victim)
        assert [s.name for s in dht.tracer.spans].count("restart") == 1

    def test_restart_without_durability_still_raises(self, wrap):
        dht = wrap(ChordDht.build(4))
        victim = dht.peers()[0]
        dht.fail(victim)
        with pytest.raises(ReproError, match="durab"):
            dht.restart(victim)


class TestRestartThroughIndexConfig:
    """``IndexConfig`` can put one wrapper in front of the substrate
    (the adaptive plane); a retrying DHT is handed to the index by the
    caller.  Restart must be reachable through ``index.dht`` on both."""

    @pytest.mark.parametrize("adaptive", [None, AdaptiveConfig()])
    def test_index_over_retrying_durable_chord_recovers(self, adaptive):
        config = IndexConfig(
            dims=2, split_threshold=8, merge_threshold=4, max_depth=16,
            durability="log", adaptive=adaptive,
        )
        index = MLightIndex(RetryingDht(_durable_chord()), config)
        rng = make_rng(derive_seed(7, "wrapped-restart"))
        points = [(rng.random(), rng.random()) for _ in range(120)]
        index.insert_many(points)
        dht = index.dht
        victim = dht.peers()[0]
        dht.fail(victim)
        dht.restart(victim)
        index.check_invariants()
        found = index.range_query(((0.0, 0.0), (1.0, 1.0)))
        assert found.complete
        assert sorted(r.key for r in found.records) == sorted(points)


# ----------------------------------------------------------------------
# Churn accounting fixes
# ----------------------------------------------------------------------


class TestChurnAccounting:
    def test_key_count_default_matches_items(self):
        dht = LocalDht(8)
        for index in range(25):
            dht.put(f"k{index}", index)
        assert dht.key_count() == sum(1 for _ in dht.items()) == 25

    def test_key_count_counts_replica_copies_once(self):
        dht = ChordDht.build(6, replication=2)
        for index in range(30):
            dht.put(f"k{index}", index)
        assert dht.key_count() == 30

    def test_wrappers_delegate_key_count(self):
        inner = LocalDht(4)
        for index in range(10):
            inner.put(f"k{index}", index)
        assert RetryingDht(inner).key_count() == 10
        assert FaultyDht(inner, FaultPlan()).key_count() == 10

    def test_schedule_and_victim_streams_are_independent(self):
        """Regression: the victim stream used ``make_rng(seed + 1)``,
        colliding with the schedule stream of the adjacent seed."""
        assert derive_seed(0, "churn-victims") != derive_seed(
            1, "churn-schedule"
        )
        assert derive_seed(0, "churn-victims") != derive_seed(
            0, "churn-schedule"
        )
        victims = make_rng(derive_seed(0, "churn-victims"))
        old_style = make_rng(0 + 1)
        assert [victims.random() for _ in range(8)] != [
            old_style.random() for _ in range(8)
        ]

    def test_adjacent_seeds_draw_different_schedules(self):
        kinds = ("join", "leave", "fail")
        first = generate_schedule(64, 1, 1, 1, seed=0)
        second = generate_schedule(64, 1, 1, 1, seed=1)
        assert first != second
        assert set(first) <= set(kinds)

    def test_schedule_rejects_negative_restart_weight(self):
        with pytest.raises(ReproError, match="restart_weight"):
            generate_schedule(4, restart_weight=-1.0)

    def test_restart_arm_recovers_crash_victims(self):
        dht = ChordDht.build(10, durability="log")
        for index in range(60):
            dht.put(f"k{index}", {"v": index})
        report = run_churn(
            dht, 16,
            join_weight=0.0, leave_weight=0.0,
            fail_weight=1.0, restart_weight=1.0,
            min_peers=4, seed=0,
        )
        kinds = [event.kind for event in report.events]
        assert "fail" in kinds and "restart" in kinds
        restarted = {
            event.peer for event in report.events
            if event.kind == "restart"
        }
        failed = [
            event.peer for event in report.events if event.kind == "fail"
        ]
        # Restarts recover victims oldest-first.
        assert restarted <= set(failed)
        still_down = [peer for peer in failed if peer not in restarted]
        if not still_down:
            assert report.survival_ratio == 1.0
        # A peer can crash and come back more than once, so compare
        # against restart *events*, not distinct victims.
        n_restart_events = sum(1 for kind in kinds if kind == "restart")
        assert dht.stats.restarts == n_restart_events


# ----------------------------------------------------------------------
# Config surfaces
# ----------------------------------------------------------------------


class TestDurabilityConfig:
    def test_runtime_config_rejects_unknown_durability(self):
        with pytest.raises(UnknownDurabilityError):
            RuntimeConfig(durability="carbonite")

    def test_runtime_config_rejects_orphan_data_dir(self):
        with pytest.raises(ReproError, match="data_dir"):
            RuntimeConfig(data_dir="/tmp/somewhere")

    def test_index_config_rejects_unknown_durability(self):
        with pytest.raises(UnknownDurabilityError):
            IndexConfig(durability="carbonite")

    @pytest.mark.parametrize(
        "overlay", ["local", "chord", "kademlia", "pastry"]
    )
    def test_create_dht_threads_durability_to_sim_overlays(self, overlay):
        dht = create_dht(RuntimeConfig(
            kind="sim", overlay=overlay, n_peers=4, durability="log"
        ))
        assert dht.durability == "log"
        assert dht.data_dir is not None

    def test_durability_defaults_to_none(self):
        dht = create_dht(RuntimeConfig(kind="sim", n_peers=4))
        assert dht.durability is None
        assert dht.data_dir is None

    def test_build_index_threads_durability(self):
        from repro.experiments.harness import build_index

        index = build_index(
            "mlight", IndexConfig(durability="log"), n_peers=8
        )
        assert index.dht.durability == "log"
