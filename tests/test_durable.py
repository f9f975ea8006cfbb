"""The durability plane: backends, recovery, restart, churn fixes."""

import threading

import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveDht
from repro.common.config import IndexConfig
from repro.common.errors import (
    CorruptValueError,
    InvalidLabelError,
    JournalVersionError,
    ReproError,
    UnknownDurabilityError,
)
from repro.common.rng import derive_seed, make_rng
from repro.core.bucket import LeafBucket
from repro.core.bulkload import bulk_load
from repro.core.codec import encode_bucket, encode_row
from repro.core.index import MLightIndex
from repro.core.keys import bucket_key
from repro.core.naming import naming_function
from repro.core.records import Record
from repro.dht.chord import ChordDht
from repro.dht.churn import generate_schedule, run_churn
from repro.dht.durable import (
    AppendLogBackend,
    backend_path,
    open_peer_store,
    resolve_data_dir,
)
from repro.dht.faults import FaultPlan, FaultyDht
from repro.dht.kademlia import KademliaDht
from repro.dht.localhash import LocalDht
from repro.dht.pastry import PastryDht
from repro.dht.retry import RetryingDht
from repro.dht.storage import PeerStore
from repro.obs.trace import Tracer
from repro.runtime import RuntimeConfig, create_dht
from repro.service import wire
from repro.service.node import ServiceDht
from repro.service.wire import FrameDecoder


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------


#: The journal's contract, over the one backend there is.
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
        assert fresh.replay() == {"a": [b"alpha-2"]}

    def test_appended_rows_replay_after_the_last_full_blob(
        self, backend_cls, tmp_path
    ):
        backend = backend_cls(tmp_path / "peer")
        backend.record_put("a", b"alpha")
        backend.record_put("a", b"row-1", append=True)
        backend.record_put("b", b"beta")
        backend.record_put("b", b"row-2", append=True)
        backend.record_put("a", b"row-3", append=True)
        backend.record_put("b", b"beta-2")  # a full write folds them
        backend.close()
        assert backend_cls(tmp_path / "peer").replay() == {
            "a": [b"alpha", b"row-1", b"row-3"], "b": [b"beta-2"],
        }

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
            "k1": [b"x"], "k9": [b"y"],
        }


class TestAppendLog:
    def test_log_is_a_plain_wire_frame_stream(self, tmp_path):
        """A durable log is the request frames its store applied: fed
        one byte at a time, FrameDecoder gives back every put, append
        and remove with the body the owner received — the bucket, a
        string value, the codec row."""
        store = PeerStore(backend=AppendLogBackend(tmp_path / "peer"))
        leaf = LeafBucket("01", 1, [Record((0.5,))])
        row = encode_row((0.25,), None)
        store.put("a", leaf)
        store.put("b", "b" * 200)
        store.append("a", row)
        store.remove("b")
        path = store.backend.path
        store.close_backend()
        data = path.read_bytes()
        decoder = FrameDecoder()
        frames = []
        for offset in range(len(data)):
            frames.extend(decoder.feed(data[offset:offset + 1]))
        assert [(frame.op, frame.body[0]) for frame in frames] == [
            (wire.Op.PUT, "a"), (wire.Op.PUT, "b"),
            (wire.Op.APPEND, "a"), (wire.Op.REMOVE, "b"),
        ]
        assert encode_bucket(frames[0].body[1]) == encode_bucket(leaf)
        assert frames[1].body[1] == "b" * 200
        assert frames[2].body[1] == row
        assert frames[3].body[1] is None

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
        assert fresh.replay() == {"a": [b"alpha"], "b": [b"beta"]}
        # The torn tail was compacted away: it cannot resurrect later,
        # and the log journals on cleanly.
        fresh.record_put("d", b"delta")
        fresh.close()
        assert AppendLogBackend(tmp_path / "peer").replay() == {
            "a": [b"alpha"], "b": [b"beta"], "d": [b"delta"],
        }

    def test_torn_final_append_drops_only_that_row(self, tmp_path):
        backend = AppendLogBackend(tmp_path / "peer")
        backend.record_put("a", b"alpha")
        backend.record_put("a", b"row-1", append=True)
        before_tail = backend.path.stat().st_size
        backend.record_put("a", b"row-2", append=True)
        backend.close()
        with open(backend.path, "ab") as handle:
            handle.truncate(before_tail + 5)
        fresh = AppendLogBackend(tmp_path / "peer")
        assert fresh.replay() == {"a": [b"alpha", b"row-1"]}
        # The intact prefix is rewritten row for row, and journals on.
        fresh.record_put("a", b"row-3", append=True)
        fresh.close()
        assert AppendLogBackend(tmp_path / "peer").replay() == {
            "a": [b"alpha", b"row-1", b"row-3"],
        }

    @pytest.mark.parametrize("step", [-1, 1])
    def test_a_log_in_another_wire_version_is_refused_untouched(
        self, tmp_path, step
    ):
        """A version bump must not read an older journal as a torn tail
        and rewrite it to nothing: replay raises, the file stays as it
        was."""
        backend = AppendLogBackend(tmp_path / "peer")
        backend.record_put("a", b"alpha")
        backend.record_remove("a")
        backend.record_put("b", b"beta")
        backend.close()
        data = bytearray(backend.path.read_bytes())
        data[4] = wire.VERSION + step
        backend.path.write_bytes(bytes(data))
        fresh = AppendLogBackend(tmp_path / "peer")
        with pytest.raises(JournalVersionError, match="version"):
            fresh.replay()
        fresh.close()
        assert backend.path.read_bytes() == bytes(data)

    def test_a_mid_log_version_byte_is_corruption(self, tmp_path):
        backend = AppendLogBackend(tmp_path / "peer")
        backend.record_put("a", b"alpha")
        first = backend.path.stat().st_size
        backend.record_put("b", b"beta")
        backend.close()
        data = bytearray(backend.path.read_bytes())
        data[first + 4] = wire.VERSION + 1
        backend.path.write_bytes(bytes(data))
        assert AppendLogBackend(tmp_path / "peer").replay() == {
            "a": [b"alpha"]
        }
        assert backend.path.stat().st_size == first

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
            "a": [b"alpha"]
        }

    def test_sync_fsyncs_every_record_and_every_rewrite(
        self, tmp_path, monkeypatch
    ):
        """``sync=True`` fsyncs once per journalled put, append and
        remove and once per log rewrite (a compaction, a torn tail's
        rewrite); an intact replay and the default backend never do."""
        synced = []
        monkeypatch.setattr("repro.dht.durable.os.fsync", synced.append)
        backend = AppendLogBackend(tmp_path / "synced", sync=True)
        backend.record_put("a", b"alpha")
        backend.record_put("a", b"row", append=True)
        backend.record_remove("a")
        assert len(synced) == 3
        backend.compact([("b", b"beta")])
        assert len(synced) == 4
        backend.close()
        assert AppendLogBackend(tmp_path / "synced", sync=True).replay() == {
            "b": [b"beta"],
        }
        assert len(synced) == 4
        with open(backend.path, "ab") as log:
            log.write(b"torn")  # a partial frame at EOF
        torn = AppendLogBackend(tmp_path / "synced", sync=True)
        assert torn.replay() == {"b": [b"beta"]}
        assert len(synced) == 5

        plain = AppendLogBackend(tmp_path / "plain")
        plain.record_put("a", b"alpha")
        plain.record_put("a", b"row", append=True)
        plain.record_remove("a")
        plain.compact([("b", b"beta")])
        plain.close()
        with open(plain.path, "ab") as log:
            log.write(b"torn")
        assert AppendLogBackend(tmp_path / "plain").replay() == {
            "b": [b"beta"],
        }
        assert len(synced) == 5

    def test_should_compact_tracks_journal_debt(self, tmp_path):
        backend = AppendLogBackend(tmp_path / "peer")
        for _ in range(65):
            backend.record_put("same", b"v")
        assert backend.should_compact(live_keys=1)
        backend.compact([("same", b"v")])
        assert not backend.should_compact(live_keys=1)


class TestRegistry:
    def test_shipped_kinds(self, tmp_path):
        store = open_peer_store("log", tmp_path, "peer")
        assert type(store.backend) is AppendLogBackend
        store.close_backend()

    def test_unknown_kind_raises_typed_error(self, tmp_path):
        with pytest.raises(
            UnknownDurabilityError,
            match=r"unknown durable backend 'carbonite'; expected one of "
            r"\('log',\)",
        ):
            open_peer_store("carbonite", tmp_path, "peer")

    def test_empty_kind_rejected(self, tmp_path):
        with pytest.raises(UnknownDurabilityError):
            open_peer_store("", tmp_path, "peer")
        with pytest.raises(UnknownDurabilityError):
            RuntimeConfig(durability="")

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

    def test_appends_journal_rows_and_recover_to_the_live_bytes(
        self, tmp_path
    ):
        store = PeerStore(backend=AppendLogBackend(tmp_path / "peer"))
        store.put("leaf", LeafBucket("01", 1, [Record((0.5,), "a")]))
        # An absent key takes no row; a point outside the cell is refused.
        assert not store.append("ghost", encode_row((0.25,), None))
        assert store.append("leaf", encode_row((0.25,), None))
        assert store.append("leaf", encode_row((0.75,), "c"))
        with pytest.raises(InvalidLabelError):
            store.append("leaf", encode_row((1.5,), None))
        live = store.get("leaf")
        store.close_backend()
        backend = AppendLogBackend(tmp_path / "peer")
        assert len(backend.replay()["leaf"]) == 3  # one blob, two rows
        backend.close()
        recovered = PeerStore.recover(AppendLogBackend(tmp_path / "peer"))
        assert len(recovered) == 1
        assert encode_bucket(recovered.get("leaf")) == encode_bucket(live)
        assert [(r.key, r.value) for r in recovered.get("leaf").records] == [
            ((0.5,), "a"), ((0.25,), None), ((0.75,), "c"),
        ]

    def test_torn_final_append_drops_only_that_row(self, tmp_path):
        store = PeerStore(backend=AppendLogBackend(tmp_path / "peer"))
        store.put("leaf", LeafBucket("01", 1))
        for number in range(3):
            store.append("leaf", encode_row((number / 4,), number))
        path = store.backend.path
        store.close_backend()
        with open(path, "ab") as handle:
            handle.truncate(path.stat().st_size - 3)
        recovered = PeerStore.recover(AppendLogBackend(tmp_path / "peer"))
        assert [(r.key, r.value) for r in recovered.get("leaf").records] == [
            ((0.0,), 0), ((0.25,), 1),
        ]

    def test_compacted_appends_replay_to_the_same_state(self, tmp_path):
        backend = AppendLogBackend(tmp_path / "peer")
        store = PeerStore(backend=backend)
        store.put("leaf", LeafBucket("01", 1))
        store.put("other", LeafBucket("01", 1, [Record((0.5,))]))
        for number in range(70):
            store.append("leaf", encode_row((number / 70,), f"v{number}"))
        assert backend._records < 72  # compaction folded rows mid-stream
        live = {key: encode_bucket(value) for key, value in store.items()}
        store.close_backend()
        recovered = PeerStore.recover(AppendLogBackend(tmp_path / "peer"))
        assert {
            key: encode_bucket(value) for key, value in recovered.items()
        } == live
        assert recovered.get("leaf").load == 70

    def test_torn_blob_on_recover_raises_typed_error(self):
        class TornBackend:
            def replay(self):
                return {"a": [b"not a pickle"]}

        with pytest.raises(CorruptValueError) as caught:
            PeerStore.recover(TornBackend())
        assert isinstance(caught.value, ReproError)


class TestLocalDhtBatchesJournalInline:
    """Elements of one batch that share an owner share its journal,
    which nothing locks: a batch must run on the calling thread."""

    def test_put_many_journals_on_the_callers_thread(self, monkeypatch):
        journalled_on = []

        class RecordingBackend(AppendLogBackend):
            def record_put(self, key, blob):
                journalled_on.append(threading.get_ident())
                super().record_put(key, blob)

        monkeypatch.setattr(
            "repro.dht.durable.AppendLogBackend", RecordingBackend
        )
        dht = LocalDht(2, durability="log")
        dht.put_many([(f"k{index}", index) for index in range(8)])
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
                    AppendLogBackend(backend_path(tmp_path, name))
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
    def test_service_restart_replays_appended_records(
        self, make_dht, transport
    ):
        """Inserts journal their rows; the owner crashes and comes back
        from its log holding every record it had, payloads included."""
        dht = make_dht(kind=transport, n_peers=3, durability="log")
        config = IndexConfig(runtime=transport, durability="log")
        rng = make_rng(derive_seed(33, "restart-appends"))
        base = [((rng.random(), rng.random()), None) for _ in range(300)]
        bulk_load(dht, [point for point, _ in base], config)
        index = MLightIndex(dht, config)
        fresh = [((rng.random(), rng.random()), f"v{n}") for n in range(40)]
        for point, value in fresh:
            index.insert(point, value)
        leaf = index.lookup(fresh[0][0]).bucket
        victim = dht.peer_of(bucket_key(naming_function(leaf.label, 2)))
        dht.fail(victim)
        dht.restart(victim)
        assert index.total_records() == len(base) + len(fresh)
        index.check_invariants()
        found = index.range_query(((0.0, 0.0), (1.0, 1.0)))
        assert found.complete
        assert sorted((r.key, r.value) for r in found.records) == sorted(
            base + fresh, key=lambda pair: pair[0]
        )
        for point, value in fresh:
            leaf = index.lookup(point).bucket
            assert [r.value for r in leaf.records if r.key == point] == [value]

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
        still its bytes: no record store is built by the restart, by
        lookups routed through the recovered peer or by a range query
        (each fetched leaf matches from its bytes) — only by the client
        that finally asks a leaf for its records."""
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
        assert store_builds == []
        leaf = index.lookup(points[0]).bucket
        assert points[0] in [record.key for record in leaf.records]
        assert store_builds == ["columnar"]
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
# Membership through the wrapper chain: join, leave, fail and restart
# reach the substrate through every wrapper
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda path: LocalDht(4, data_dir=path),
            lambda path: ChordDht.build(4, data_dir=path),
            lambda path: ServiceDht(4, transport="asyncio", data_dir=path),
            lambda path: ServiceDht(4, transport="tcp", data_dir=path),
        ],
        ids=["local", "chord", "asyncio", "tcp"],
    )
    def test_substrates_reject_orphan_data_dir(self, build, tmp_path):
        """A data_dir without durability would be ignored: every
        substrate refuses it, as RuntimeConfig does."""
        with pytest.raises(ReproError, match="data_dir"):
            build(tmp_path)

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
