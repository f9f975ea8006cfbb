"""Unit tests for the service plane: wire protocol, peer runtime,
retry/fault/tracer integration, and the load generator."""

from __future__ import annotations

import asyncio
import contextvars
import gc
import json
import pickle
import threading
from pathlib import Path

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import (
    DhtKeyError,
    NodeUnreachableError,
    ReproError,
)
from repro.common.rng import derive_seed, make_rng
from repro.core import codec
from repro.core.bucket import LeafBucket
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.core.records import Record
from repro.dht.api import GET, GET_MANY, REWRITE, BatchFailure
from repro.dht.durable import AppendLogBackend, backend_path
from repro.dht.peer import HashRing, KeyValuePeer
from repro.dht.retry import RetryingDht
from repro.dht.faults import FaultPlan, FaultyDht
from repro.net.message import ENVELOPE_WIRE_BYTES
from repro.mcast.service import gather_eagerly
from repro.obs.trace import Tracer
from repro.runtime import create_dht
from repro.service.node import ServiceDht, WallClock, serve_request
from repro.service.loadgen import (
    LoadReport,
    percentile,
    publish,
    run_load,
)
from repro.service.wire import (
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    FrameDecoder,
    Op,
    WireError,
    decode_frame,
    decode_value,
    encode_error,
    encode_reply,
    encode_request,
    frame_wire_sizes,
    rebuild_error,
)
from repro.workloads.traces import Operation, request_trace

#: What unpickling a :class:`_Tripwire` appended: a frame check that
#: ran after ``pickle.loads`` shows up here.
tripped: list = []


def _trip() -> None:
    tripped.append(True)


class _Tripwire:
    def __reduce__(self):
        return (_trip, ())


class TickClock:
    """A stub :class:`WallClock` whose ``now`` advances one second per
    read."""

    def __init__(self) -> None:
        self.reads = 0

    @property
    def now(self) -> float:
        self.reads += 1
        return float(self.reads)


def one_step(step):
    """An operation of the single *step*, returning its outcome."""
    return (yield step)


class TestWireProtocol:
    def test_request_round_trip(self):
        data = encode_request(Op.PUT, 7, "leaf-0101", {"a": 1})
        frame = decode_frame(data)
        assert frame.op is Op.PUT
        assert frame.request_id == 7
        assert frame.body == ("leaf-0101", {"a": 1})

    def test_reply_round_trip(self):
        frame = decode_frame(encode_reply(9, [1, 2, 3]))
        assert frame.op is Op.REPLY_OK
        assert frame.is_reply
        assert frame.body == [1, 2, 3]

    def test_error_reply_rebuilds_library_errors(self):
        frame = decode_frame(encode_error(3, DhtKeyError("key 'x' gone")))
        rebuilt = rebuild_error(frame.body)
        assert isinstance(rebuilt, DhtKeyError)
        assert "key 'x' gone" in str(rebuilt)

    def test_unknown_error_class_degrades_to_wire_error(self):
        frame = decode_frame(encode_error(3, RuntimeError("boom")))
        rebuilt = rebuild_error(frame.body)
        assert isinstance(rebuilt, WireError)
        assert "boom" in str(rebuilt)

    def test_bad_magic_rejected(self):
        data = bytearray(encode_reply(1, None))
        data[:4] = b"EVIL"
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(data))

    def test_bad_version_rejected(self):
        data = bytearray(encode_reply(1, None))
        data[4] = 99
        with pytest.raises(WireError, match="version"):
            decode_frame(bytes(data))

    def test_unknown_opcode_rejected_before_its_payload_is_unpickled(self):
        tripped.clear()
        payload = pickle.dumps(_Tripwire())
        data = HEADER.pack(MAGIC, VERSION, 99, 1, len(payload)) + payload
        with pytest.raises(WireError, match="unknown opcode 99"):
            decode_frame(data)
        # An undecodable payload behind it does not mask the opcode.
        garbled = HEADER.pack(MAGIC, VERSION, 99, 1, 3) + b"\x80zz"
        with pytest.raises(WireError, match="unknown opcode 99"):
            decode_frame(garbled)
        # A stream refuses the header before any payload byte arrives.
        with pytest.raises(WireError, match="unknown opcode 99"):
            FrameDecoder().feed(data[: HEADER.size])
        assert tripped == []

    def test_declared_length_over_the_limit_rejected(self):
        tripped.clear()
        payload = pickle.dumps(_Tripwire())
        header = HEADER.pack(MAGIC, VERSION, int(Op.GET), 1, MAX_PAYLOAD + 1)
        with pytest.raises(WireError, match="exceeds"):
            decode_frame(header + payload)
        with pytest.raises(WireError, match="exceeds"):
            FrameDecoder().feed(header)
        assert tripped == []

    def test_undecodable_payload_rejected(self):
        data = HEADER.pack(MAGIC, VERSION, int(Op.REPLY_OK), 1, 3) + b"\x80zz"
        with pytest.raises(WireError, match="undecodable frame payload"):
            decode_frame(data)

    def test_encode_request_refuses_a_reply_opcode(self):
        for op in (Op.REPLY_OK, Op.REPLY_ERR, Op.MCAST):
            with pytest.raises(WireError, match="not a request"):
                encode_request(op, 1, "k")

    def test_oversize_payload_refused_at_encode(self, monkeypatch):
        from repro.service import wire

        monkeypatch.setattr(wire, "MAX_PAYLOAD", 64)
        encode_reply(1, b"x" * 16)
        with pytest.raises(WireError, match="exceeds the 64-byte frame limit"):
            encode_reply(1, b"x" * 128)
        with pytest.raises(WireError, match="exceeds"):
            encode_request(Op.PUT, 1, "k", b"x" * 128)

    def test_surplus_bytes_rejected_by_decode_frame(self):
        data = encode_reply(1, None) + b"x"
        with pytest.raises(WireError, match="leftover"):
            decode_frame(data)

    def test_decoder_reassembles_arbitrary_chunking(self):
        stream = b"".join(
            encode_request(Op.GET, i, f"key-{i}") for i in range(20)
        )
        for chunk_size in (1, 3, 7, len(stream)):
            decoder = FrameDecoder()
            frames = []
            for start in range(0, len(stream), chunk_size):
                frames.extend(
                    decoder.feed(stream[start : start + chunk_size])
                )
            assert [f.request_id for f in frames] == list(range(20))

    def test_wire_cost_uses_codec_accounting(self):
        from repro.core.bucket import LeafBucket
        from repro.core.codec import encoded_bucket_size
        from repro.core.records import Record

        bucket = LeafBucket("001", 2)
        for i in range(5):
            bucket.add(Record((i / 10.0, 0.5)))
        cost = frame_wire_sizes(Op.PUT, "leaf", bucket)[0]
        # Record-bearing payloads are priced at their exact codec size;
        # a non-record payload costs one envelope.
        assert cost == (
            HEADER.size + len(b"leaf") + encoded_bucket_size(bucket)
        )
        assert frame_wire_sizes(Op.PUT, "leaf", "opaque")[0] == (
            HEADER.size + len(b"leaf") + ENVELOPE_WIRE_BYTES
        )

    def test_append_is_priced_as_one_record(self):
        point = (0.25, 0.5)
        row = codec.encode_row(point, None)
        assert frame_wire_sizes(Op.APPEND, "leaf", row) == (
            HEADER.size + len(b"leaf") + 16, 16
        )
        value = pickle.dumps("payload", protocol=pickle.HIGHEST_PROTOCOL)
        row = codec.encode_row(point, "payload")
        assert row == codec.encode_row(point, None) + value
        assert frame_wire_sizes(Op.APPEND, "leaf", row) == (
            HEADER.size + len(b"leaf") + 16 + len(value), 16 + len(value)
        )

    def test_serve_request_never_raises(self):
        peer = KeyValuePeer("p-0")
        reply = decode_frame(
            serve_request(
                peer, decode_frame(encode_request(Op.REMOVE, 5, "absent"))
            )
        )
        assert reply.op is Op.REPLY_ERR
        assert isinstance(rebuild_error(reply.body), DhtKeyError)


class TestHashRing:
    def test_matches_localdht_placement(self):
        from repro.dht.localhash import LocalDht

        ring = HashRing([f"peer-{i:04d}" for i in range(16)])
        local = LocalDht(16)
        for key in ("a", "leaf-0101", "x" * 40, "00110"):
            assert ring.peer_of(key) == local.peer_of(key)

    def test_empty_ring_rejected(self):
        with pytest.raises(ReproError):
            HashRing([])


class TestKeyValuePeer:
    def test_primitives(self):
        peer = KeyValuePeer("p-7")
        assert peer.serve("contains", "k") is False
        assert peer.serve("get", "k") is None
        peer.serve("put", "k", 42)
        assert peer.serve("get", "k") == 42
        assert peer.serve("lookup", "k") == "p-7"
        assert peer.serve("remove", "k") == 42
        with pytest.raises(DhtKeyError):
            peer.serve("remove", "k")

    def test_rewrite_and_append_write_only_a_present_key(self):
        from repro.core.bucket import LeafBucket

        peer = KeyValuePeer("p-7")
        assert peer.serve("rewrite", "k", 1) is False
        assert peer.serve("append", "k", codec.encode_row((0.5, 0.5), None)) is False
        assert "k" not in peer.store
        peer.serve("put", "k", LeafBucket("01", 1))
        assert peer.serve("rewrite", "k", LeafBucket("01", 1)) is True
        assert peer.serve("append", "k", codec.encode_row((0.5,), "v")) is True
        assert [(r.key, r.value) for r in peer.serve("get", "k").records] == [
            ((0.5,), "v")
        ]

    def test_unknown_op_rejected(self):
        with pytest.raises(ReproError, match="unknown peer operation"):
            KeyValuePeer("p").serve("gossip", "k")


@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
class TestServiceDht:
    def test_primitives_and_errors_cross_the_wire(self, transport):
        with ServiceDht(4, transport=transport) as dht:
            dht.put("k1", "v1")
            assert dht.get("k1") == "v1"
            assert dht.get("missing") is None
            assert dht.lookup("k1") == dht.peer_of("k1")
            assert dht.remove("k1") == "v1"
            with pytest.raises(DhtKeyError):
                dht.remove("k1")
            with pytest.raises(DhtKeyError):
                dht.rewrite_local("k1", "v2")

    def test_batches_are_one_round(self, transport):
        with ServiceDht(4, transport=transport) as dht:
            dht.put_many([(f"k{i}", i) for i in range(10)])
            assert dht.get_many_outcomes([f"k{i}" for i in range(10)]) == list(
                range(10)
            )
            assert dht.stats.batch_rounds == 2
            assert dht.stats.batch_ops == 20
            assert dht.network.stats.rounds == 2
            assert dht.network.stats.max_round_fanout == 10

    def test_values_cross_by_copy_like_a_real_network(self, transport):
        """Mutating a value after put must not mutate the stored copy —
        the wire pickles; aliasing bugs that SimNetwork would mask
        surface here."""
        with ServiceDht(2, transport=transport) as dht:
            value = {"records": []}
            dht.put("k", value)
            value["records"].append("local-mutation")
            assert dht.get("k") == {"records": []}

    def test_close_is_idempotent_and_final(self, transport):
        dht = ServiceDht(2, transport=transport)
        dht.put("k", 1)
        dht.close()
        dht.close()
        with pytest.raises(ReproError, match="closed"):
            dht.get("k")

    def test_wall_clock_spans_recorded(self, transport):
        with ServiceDht(2, transport=transport) as dht:
            dht.put("k", 1)
            dht.get_many_outcomes(["k"])
            clock_kind, spent = dht.network.stats.latency_clock()
        assert clock_kind == "wall"
        assert spent > 0.0

    def test_one_wall_span_per_request_and_per_round(self, transport):
        """A single request — sync facade, a step on the loop, a rewrite,
        an extension ``call`` — books exactly one wall span, answered or
        not; a gather round books one, its critical path, not one per
        element.  The stub clock ticks one second per read, so one span
        read at its two ends adds exactly 1.0, a nested or per-element
        span adds more and a dropped one adds 0."""

        async def echo(peer, frame):
            return encode_reply(frame.request_id, frame.body)

        with ServiceDht(4, transport=transport) as dht:
            dht.install_handler(Op.MCAST, echo)
            dht.put_many([(f"k{i}", i) for i in range(4)])
            dht.network.clock = TickClock()
            stats = dht.network.stats

            def span_of(action) -> float:
                before = stats.wall_seconds
                action()
                return stats.wall_seconds - before

            keys = [f"k{i}" for i in range(4)]
            singles = {
                "get": lambda: dht.get("k0"),
                "get on the loop": lambda: dht.drive(one_step((GET, "k1"))),
                "remove": lambda: dht.remove("k3"),
                "rewrite": lambda: dht.rewrite_local("k2", 5),
                "call": lambda: dht.call(Op.MCAST, "k0", body="x"),
                "absent rewrite": lambda: pytest.raises(
                    DhtKeyError, dht.rewrite_local, "absent", 1
                ),
            }
            for name, action in singles.items():
                assert span_of(action) == 1.0, name
            rounds = {
                "get_many": lambda: dht.get_many_outcomes(keys),
                "get_many on the loop": lambda: dht.drive(
                    one_step((GET_MANY, keys))
                ),
                "put_many": lambda: dht.put_many([(k, 0) for k in keys]),
            }
            for name, action in rounds.items():
                assert span_of(action) == 1.0, name
            dht.fail(dht.peer_of("k0"))
            assert span_of(
                lambda: pytest.raises(NodeUnreachableError, dht.get, "k0")
            ) == 1.0
            assert stats.rounds == 4  # the set-up round and these three


def _leaf(*xs: float) -> LeafBucket:
    """A leaf of 2-d cell ``0010`` (x below 0.5) with a record at each
    ``(x, 0.5)``."""
    return LeafBucket("0010", 2, [Record((x, 0.5)) for x in xs])


@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
class TestExchangePrice:
    """One exchange of each reply kind moves ``NetworkStats`` by exactly
    what the byte model, :func:`frame_wire_sizes`, charges its request
    and its reply: one RPC, two messages, their bytes booked under the
    opcode's two message types."""

    KEY, ABSENT = "ml:0010", "ml:absent"

    @staticmethod
    def _moved(dht, action) -> dict:
        stats = dht.network.stats
        before = stats.snapshot()
        types, sizes = dict(stats.per_type), dict(stats.bytes_per_type)
        action()
        after = stats.snapshot()
        return {
            "counters": {
                name: after[name] - before[name]
                for name in (
                    "rpc_calls", "messages", "bytes_sent", "payload_bytes"
                )
            },
            "per_type": {
                kind: count - types.get(kind, 0)
                for kind, count in stats.per_type.items()
                if count != types.get(kind, 0)
            },
            "bytes_per_type": {
                kind: size - sizes.get(kind, 0)
                for kind, size in stats.bytes_per_type.items()
                if size != sizes.get(kind, 0)
            },
        }

    @staticmethod
    def _model(op: Op, key: str, value, reply_op: Op, reply) -> dict:
        request, answer = op.name.lower(), op.name.lower() + ":reply"
        sent = frame_wire_sizes(op, key, value)
        back = frame_wire_sizes(reply_op, "", reply)
        return {
            "counters": {
                "rpc_calls": 1, "messages": 2,
                "bytes_sent": sent[0] + back[0],
                "payload_bytes": sent[1] + back[1],
            },
            "per_type": {request: 1, answer: 1},
            "bytes_per_type": {request: sent[0], answer: back[0]},
        }

    def test_each_reply_kind_costs_what_the_byte_model_says(self, transport):
        leaf, grown = _leaf(0.1, 0.2), _leaf(0.1, 0.2, 0.3)
        appended = _leaf(0.1, 0.2, 0.3, 0.4)
        row = codec.encode_row((0.4, 0.5), None)
        key, absent = self.KEY, self.ABSENT
        with ServiceDht(4, transport=transport) as dht:
            dht.put(key, leaf)
            owner = dht.peer_of(key)
            cases = {
                "get a bucket": (
                    lambda: dht.get(key),
                    (Op.GET, key, None, Op.REPLY_OK, leaf),
                ),
                "get an absent key": (
                    lambda: dht.get(absent),
                    (Op.GET, absent, None, Op.REPLY_OK, None),
                ),
                "lookup": (
                    lambda: dht.lookup(key),
                    (Op.LOOKUP, key, None, Op.REPLY_OK, owner),
                ),
                "rewrite": (
                    lambda: dht.rewrite_local(key, grown),
                    (Op.REWRITE, key, grown, Op.REPLY_OK, True),
                ),
                "append": (
                    lambda: dht.exchange(None, "append", key, Record((0.4, 0.5))),
                    (Op.APPEND, key, row, Op.REPLY_OK, True),
                ),
                "remove": (
                    lambda: dht.remove(key),
                    (Op.REMOVE, key, None, Op.REPLY_OK, appended),
                ),
                "an error reply": (
                    lambda: pytest.raises(DhtKeyError, dht.remove, key),
                    (
                        Op.REMOVE, key, None, Op.REPLY_ERR,
                        ("DhtKeyError", f"key {key!r} does not exist"),
                    ),
                ),
            }
            for name, (action, exchange) in cases.items():
                assert self._moved(dht, action) == self._model(*exchange), name


def test_a_traced_get_step_matches_localdht():
    """The service loop's bare ``GET`` fast path is for untraced steps
    only: with a :class:`Tracer` attached, a ``GET`` step driven on the
    loop opens the ``dht`` span, with its ``key`` attr, and ticks the
    ``DhtStats`` a ``GET`` step does on ``LocalDht``; untraced, it ticks
    the same and opens none."""
    seen = []
    for kind in ("sim", "asyncio"):
        with create_dht(kind=kind, n_peers=4) as dht:
            dht.put("k", "v")
            tracer = Tracer().attach(dht)
            before = dht.stats.snapshot()
            assert dht.drive(one_step((GET, "k"))) == "v"
            traced = [
                (span.kind, span.name, span.attrs, span.status)
                for span in tracer.spans
            ]
            tracer.detach(dht)
            assert dht.drive(one_step((GET, "absent"))) is None
            assert len(tracer.spans) == len(traced)
            after = dht.stats.snapshot()
            seen.append((
                traced, {name: after[name] - before[name] for name in after}
            ))
    assert seen[0] == seen[1]
    traced, ticks = seen[0]
    assert traced == [("dht", GET, {"key": "k"}, "ok")]
    assert (ticks["lookups"], ticks["gets"]) == (2, 2)


def test_a_round_with_a_down_peer_fails_only_its_slots():
    """A ``GET_MANY`` over keys on several peers, one of them down: that
    peer's slots are exactly :class:`BatchFailure`, every other slot
    holds its value in call order, and both transports account the
    round alike."""
    keys = [f"k{n}" for n in range(12)]
    accounted = []
    for transport in ("asyncio", "tcp"):
        with ServiceDht(4, transport=transport) as dht:
            dht.put_many([(key, n) for n, key in enumerate(keys)])
            down = dht.peer_of(keys[0])
            owners = [dht.peer_of(key) for key in keys]
            assert len(set(owners)) > 2  # the down peer and live ones
            dht.fail(down)
            stats = dht.network.stats
            before, types = stats.snapshot(), dict(stats.per_type)
            outcomes = dht.get_many_outcomes(keys)
            after = stats.snapshot()
            moved = {
                name: after[name] - before[name]
                for name in (
                    "rpc_calls", "messages", "bytes_sent", "payload_bytes",
                    "rounds",
                )
            }
            moved["per_type"] = {
                kind: count - types.get(kind, 0)
                for kind, count in stats.per_type.items()
                if count != types.get(kind, 0)
            }
            accounted.append(moved)
        for n, (owner, outcome) in enumerate(zip(owners, outcomes)):
            if owner == down:
                assert type(outcome) is BatchFailure
                assert isinstance(outcome.error, NodeUnreachableError)
            else:
                assert outcome == n
    assert accounted[0] == accounted[1]
    assert accounted[0]["rounds"] == 1
    assert accounted[0]["rpc_calls"] == len(keys)


class TestServiceOracles:
    def test_items_and_load_by_peer(self):
        with ServiceDht(4) as dht:
            for i in range(20):
                dht.put(f"k{i}", i)
            stored = dict(dht.items())
            assert stored == {f"k{i}": i for i in range(20)}
            loads = dht.load_by_peer()
            assert sum(loads.values()) == 20
            assert set(loads) == set(dht.peers())

    def test_unstarted_instance_is_empty_not_crashed(self):
        dht = ServiceDht(2)
        assert list(dht.items()) == []
        assert sum(dht.load_by_peer().values()) == 0
        dht.close()


class TestServedWhereTheFrameLands:
    """The asyncio transport has no inbox: a request frame is served on
    the task that sends it, so a peer is no task of its own."""

    def test_a_request_racing_a_crash_is_refused(self):
        """A request that reaches a peer after its stop has begun raises
        :class:`NodeUnreachableError` instead of waiting forever for a
        peer that will never answer (bounded here, so a hang fails)."""
        with ServiceDht(4) as dht:
            owner = dht._member(dht.peer_of("k"))

            async def race():
                # The bridge starts race() eagerly, in no Task until it
                # first suspends; from Python 3.12 wait_for needs one.
                await asyncio.sleep(0)
                stopping = asyncio.ensure_future(owner.stop())
                request = asyncio.ensure_future(dht._request(Op.GET, "k"))
                try:
                    await asyncio.wait_for(request, 1.0)
                except Exception as error:
                    return error
                finally:
                    await stopping

            assert isinstance(dht._bridge().run(race()), NodeUnreachableError)

    def test_loop_tasks_do_not_grow_with_the_peers(self):
        async def count_tasks():
            return len(asyncio.all_tasks())

        counts = []
        for n_peers in (8, 64):
            with ServiceDht(n_peers) as dht:
                dht.put("k", 1)
                counts.append(dht._bridge().run(count_tasks()))
        assert counts[0] == counts[1]

    def test_no_queue_in_the_service_package(self):
        package = Path(__file__).resolve().parent.parent / "src/repro/service"
        for path in package.glob("*.py"):
            assert "Queue" not in path.read_text(), path


def count_tasks(dht: ServiceDht) -> list:
    """Install a task factory on *dht*'s loop that lists every Task it
    creates; returns that list."""
    created: list = []

    def factory(loop, coro, **kwargs):
        created.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def install():
        asyncio.get_running_loop().set_task_factory(factory)

    dht._bridge().run(install())
    return created


CALLER = contextvars.ContextVar("caller", default=None)


class TestEagerStart:
    """The bridge and batch rounds start coroutines eagerly: one that
    never suspends costs no Task; one that suspends keeps its Context."""

    def test_a_coroutine_that_never_suspends_creates_no_task(self):
        async def plain():
            return threading.get_ident(), asyncio.current_task()

        with ServiceDht(2) as dht:
            created = count_tasks(dht)
            thread, task = dht._bridge().run(plain())
        assert thread == threading.get_ident()  # it ran on the caller...
        assert task is None  # ...inside the bridge callback, in no Task
        assert created == []

    def test_a_suspending_coroutine_keeps_its_context(self):
        tracer = Tracer()

        async def suspending():
            with tracer.span("test", "inner"):
                await asyncio.sleep(0)
                return CALLER.get(), asyncio.current_task() is not None

        with ServiceDht(2) as dht:
            created = count_tasks(dht)
            token = CALLER.set("client thread")
            try:
                with tracer.span("test", "outer"):
                    seen, in_task = dht._bridge().run(suspending())
            finally:
                CALLER.reset(token)
        assert seen == "client thread" and in_task
        assert len(created) == 1
        inner, outer = tracer.spans  # finished innermost first
        assert inner.name == "inner" and inner.parent_id == outer.span_id
        assert inner.status == "ok" and inner.wall_end is not None

    @pytest.mark.parametrize("suspend", [False, True])
    def test_an_exception_reaches_the_caller_as_itself(self, suspend):
        async def failing():
            if suspend:
                await asyncio.sleep(0)
            raise DhtKeyError("gone")

        with ServiceDht(2) as dht:
            with pytest.raises(DhtKeyError, match="gone"):
                dht._bridge().run(failing())

    def test_gather_eagerly_keeps_call_order_and_retrieves_failures(
        self, caplog
    ):
        finished: list = []

        async def child(value, suspend, fail=False):
            for _ in range(suspend):
                await asyncio.sleep(0)
            finished.append(value)
            if fail:
                raise ValueError(value)
            return value

        async def mixed():
            return await gather_eagerly(
                [child(0, 2), child(1, 0), child(2, 1), child(3, 0)]
            )

        async def failing():
            with pytest.raises(ValueError) as raised:
                await gather_eagerly([
                    child(0, 2), child(1, 0, fail=True),
                    child(2, 1, fail=True), child(3, 3),
                ])
            return raised.value.args[0], sorted(finished)

        assert asyncio.run(mixed()) == [0, 1, 2, 3]
        assert finished == [1, 3, 2, 0]  # finished out of order
        finished.clear()
        with caplog.at_level("ERROR", logger="asyncio"):
            assert asyncio.run(failing()) == (1, [0, 1, 2, 3])
            gc.collect()
        assert "never retrieved" not in caplog.text


def test_in_process_operations_create_no_task():
    """A lookup, a range query, a splitting insert and a merging delete
    on the in-process transport start every coroutine eagerly and
    never suspend, so none creates a Task; TCP answers the same."""
    config = IndexConfig(dims=2, split_threshold=4, merge_threshold=2)
    corner = [(0.01 * n, 0.01 * n) for n in range(1, 6)]

    def trace(transport):
        with ServiceDht(8, transport=transport) as dht:
            index = MLightIndex(dht, config)
            for point in corner[:4]:
                index.insert(point)
            created = count_tasks(dht)
            tasks, answers = {}, {}

            def measure(kind, operation):
                before = len(created)
                answers[kind] = operation()
                tasks[kind] = len(created) - before

            def leaf(found):
                return found.bucket.label, found.lookups

            measure("lookup", lambda: leaf(index.lookup(corner[0])))
            measure("range", lambda: sorted(
                record.key for record in index.range_query(
                    ((0.0, 0.0), (0.04, 0.04))
                ).records
            ))
            puts = dht.stats.puts
            measure("split", lambda: leaf(index.insert(corner[4])))
            assert dht.stats.puts > puts  # it split
            removes = dht.stats.removes
            measure("merge", lambda: [index.delete(p) for p in corner])
            assert dht.stats.removes > removes  # it merged
            index.check_invariants()
        return tasks, answers

    tasks, answers = trace("asyncio")
    assert tasks == {"lookup": 0, "range": 0, "split": 0, "merge": 0}
    assert trace("tcp")[1] == answers


def test_a_dropped_tcp_connection_refuses_later_requests():
    """A garbled frame ends the listener's connection quietly, and a
    channel whose read loop has ended refuses requests at once instead
    of registering a reply nothing will ever deliver (bounded here by a
    thread join, so a hang fails)."""
    with ServiceDht(2, transport="tcp") as dht:
        owner = dht._member(dht.peer_of("k"))
        dht.put("k", 1)

        async def garble():
            owner.channel._writer.write(b"XXXX" + b"\x01" * 10)
            await owner.channel._writer.drain()
            await asyncio.wait({owner.channel._reader_task}, timeout=3.0)
            return owner.channel._reader_task.done()

        assert dht._bridge().run(garble())  # the server hung up
        outcome: list = []

        def get():
            try:
                outcome.append(dht.get("k"))
            except Exception as error:
                outcome.append(error)

        client = threading.Thread(target=get, daemon=True)
        client.start()
        client.join(3.0)
        assert not client.is_alive(), "a request to a dropped peer hung"
        assert isinstance(outcome[0], NodeUnreachableError)


@pytest.mark.parametrize("durability", [None, "log"])
def test_a_garbled_reply_stream_fails_its_call_and_close_still_stops_all(
    tmp_path, durability
):
    """A peer that answers bytes which are no frame ends its channel's
    read loop: the pending call fails as unreachable, and ``close()``
    still returns, with every peer stopped and every backend closed."""

    async def garbled(peer, frame):
        return b"XXXX" * 8

    dht = ServiceDht(
        4, transport="tcp", durability=durability,
        data_dir=tmp_path if durability else None,
    )
    dht.put("k", 1)
    dht.install_handler(Op.MCAST, garbled)
    with pytest.raises(NodeUnreachableError):
        dht.call(Op.MCAST, "k", body="x")
    peers = list(dht._peers.values())
    dht.close()
    assert [peer.live for peer in peers] == [False] * 4
    assert [peer.peer.store.backend for peer in peers] == [None] * 4


@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
class TestOneFrameWrites:
    """A rewrite is one frame the owner serves whole: no request can
    land between its check and its write, and an insert's frame carries
    its record, so two inserts into one leaf commute."""

    def test_a_remove_racing_a_rewrite_is_not_undone(
        self, transport, monkeypatch
    ):
        with ServiceDht(4, transport=transport) as dht:
            dht.put("k", "v0")
            real_serve = KeyValuePeer.serve
            served = []

            def serve(peer, op, key, value=None):
                reply = real_serve(peer, op, key, value)
                if not served:  # right after the rewrite's first frame,
                    served.append(op)
                    peer.store.remove(key)  # another client's REMOVE
                return reply

            monkeypatch.setattr(KeyValuePeer, "serve", serve)
            dht.rewrite_local("k", "v1")
            assert dht.get("k") is None
            assert served == ["rewrite"]

    def test_two_inserts_into_one_leaf_commute(self, transport):
        """A's insert is advanced by hand to its rewrite, B inserts
        into the same leaf, A finishes: no lock, no split."""
        config = IndexConfig(dims=2, split_threshold=50, merge_threshold=2)
        with ServiceDht(4, transport=transport) as dht:
            a, b = MLightIndex(dht, config), MLightIndex(dht, config)
            points = [(0.1 * n, 0.1 * n) for n in range(1, 7)]
            for point in points[:4]:
                a.insert(point, "old")
            insert = a._insert(Record.make(points[4], "a", dims=2))
            step = next(insert)
            while step[0] is not REWRITE:  # A has read the leaf ...
                step = insert.send(dht.perform(step))
            b.insert(points[5], "b")  # ... B inserts into it ...
            with pytest.raises(StopIteration):  # ... A writes its record.
                while True:
                    step = insert.send(dht.perform(step))
            assert a.tree_size() == 1
            assert a.total_records() == 6
            a.check_invariants()
            found = b.range_query(((0.0, 0.0), (1.0, 1.0))).records
            assert sorted((r.key, r.value) for r in found) == sorted(
                [(point, "old") for point in points[:4]]
                + [(points[4], "a"), (points[5], "b")]
            )


@pytest.mark.parametrize("values", [False, True], ids=["none", "values"])
@pytest.mark.parametrize("store", ["columnar", "numpy"])
@pytest.mark.parametrize("inserts", [1, 5])
def test_appended_bytes_equal_the_leaf_encoded_whole(
    make_dht, inserts, store, values
):
    """After non-splitting inserts, every owner holds, as a bucket with
    a valid memo, exactly the bytes ``encode_bucket`` packs for the
    same leaf grown on ``LocalDht``."""
    config = IndexConfig(dims=2, store=store)
    rng = make_rng(derive_seed(33, "append-bytes"))
    points = [(rng.random(), rng.random()) for _ in range(400)]
    service = make_dht(kind="asyncio", n_peers=4)
    local = make_dht(kind="sim", overlay="local", n_peers=4)
    indexes = []
    for dht in (service, local):
        bulk_load(dht, points, config)
        indexes.append(MLightIndex(dht, config))
    leaf = min(indexes[1].buckets(), key=lambda bucket: bucket.load)
    assert leaf.load + inserts < config.split_threshold
    lows, highs = leaf.region.lows, leaf.region.highs
    for number in range(inserts):
        point = tuple(
            low + (high - low) * rng.random() for low, high in zip(lows, highs)
        )
        value = f"v{number}" if values else None
        for index in indexes:
            index.insert(point, value)
    assert indexes[0].tree_size() == indexes[1].tree_size()
    held = dict(service.items())
    for key, bucket in local.items():
        assert held[key].encoded_memo() == codec.encode_bucket(bucket)


class TestBucketBytePath:
    """The life of a bucket's bytes on the service runtime: packed by
    whoever mutated the bucket, copied by everyone else; a record store
    exists only where records were asked for."""

    DIMS = 2

    def _index(self, make_dht, tmp_path):
        dht = make_dht(
            kind="asyncio", n_peers=3, durability="log",
            data_dir=str(tmp_path),
        )
        config = IndexConfig(runtime="asyncio", durability="log")
        rng = make_rng(derive_seed(14, "byte-path"))
        points = [(rng.random(), rng.random()) for _ in range(600)]
        bulk_load(dht, points, config)
        return MLightIndex(dht, config), points

    def test_cold_lookup_builds_no_store_on_either_side(
        self, make_dht, tmp_path, store_builds, monkeypatch
    ):
        index, points = self._index(make_dht, tmp_path)
        packed = _count_column_packings(monkeypatch)
        store_builds.clear()
        for point in points[:20]:
            result = index.lookup(point)
            assert result.lookups > 1  # a binary search, not one probe
            assert result.bucket.covers(point)
            assert result.bucket.load > 0
        assert store_builds == [] and packed == []
        assert point in [r.key for r in result.bucket.records]
        assert store_builds == ["columnar"]  # the client asked, once

    def test_plain_insert_builds_no_store_and_packs_none(
        self, make_dht, tmp_path, store_builds, monkeypatch
    ):
        index, _ = self._index(make_dht, tmp_path)
        config = index.config
        point = (0.40625, 0.71875)
        assert index.lookup(point).bucket.load < config.split_threshold - 1
        splits_before = index.tree_size()
        packed = _count_column_packings(monkeypatch)
        store_builds.clear()
        result = index.insert(point, "payload")
        assert store_builds == []  # add() spliced the client's bytes
        assert packed == []  # the record travelled, not the bucket
        assert index.tree_size() == splits_before
        # The owner spliced the row into its resident bytes: reading it
        # back copies them, with no store and no packing anywhere.
        again = index.lookup(point).bucket
        assert store_builds == [] and packed == []
        assert codec.encode_bucket(again) == codec.encode_bucket(result.bucket)

    def test_journal_holds_the_row_not_the_bucket(
        self, make_dht, tmp_path, monkeypatch
    ):
        from repro.service import node

        frames = []
        real_encode_request = node.encode_request

        def recording(op, request_id, key, value=None):
            frame = real_encode_request(op, request_id, key, value)
            frames.append((op, key, frame))
            return frame

        index, _ = self._index(make_dht, tmp_path)
        monkeypatch.setattr(node, "encode_request", recording)
        point = (0.40625, 0.71875)
        bucket = index.insert(point, "payload").bucket
        dht = index.dht
        (append_key, append_frame), = [
            (key, frame) for op, key, frame in frames if op is not Op.GET
        ]
        assert decode_frame(append_frame).op is Op.APPEND
        assert codec.encode_bucket(bucket) not in append_frame
        owner = dht.peer_of(append_key)
        dht.close()
        journal = AppendLogBackend(backend_path(tmp_path, owner))
        try:
            blob, *rows = journal.replay()[append_key]
        finally:
            journal.close()
        # The row the owner received, journalled as it came.
        assert rows == [codec.encode_row(point, "payload")]
        assert rows[0] in append_frame
        replayed = decode_value(blob).appended(rows[0])
        assert codec.encode_bucket(replayed) == codec.encode_bucket(bucket)

    def test_oracle_reads_of_resident_buckets_stay_consistent(
        self, make_dht, tmp_path, store_builds
    ):
        index, points = self._index(make_dht, tmp_path)
        dht = index.dht
        store_builds.clear()
        assert index.total_records() == len(points)
        assert sum(
            dht.load_by_peer(lambda bucket: bucket.load).values()
        ) == len(points)
        assert store_builds == []  # loads come from headers
        by_records = dht.load_by_peer(lambda bucket: len(bucket.records))
        assert sum(by_records.values()) == len(points)
        # The client thread built the peers' stores; the peers keep
        # serving the same bytes.
        assert index.lookup(points[0]).bucket.covers(points[0])


def _count_column_packings(monkeypatch) -> list:
    """One entry per coordinate column packed by ``encode_bucket``."""
    packed = []
    real = codec._column_bytes

    def counting(column):
        packed.append(len(column))
        return real(column)

    monkeypatch.setattr(codec, "_column_bytes", counting)
    return packed


class TestWrapperStack:
    def test_retrying_dht_wraps_the_service_runtime(self):
        with ServiceDht(4) as inner:
            dht = RetryingDht(inner, attempts=3)
            dht.put("k", "v")
            assert dht.get("k") == "v"
            # The retry wrapper resolved its clock from the service
            # transport: waits would burn wall time, not virtual time.
            assert dht.clock is inner.network.clock

    def test_faulty_dht_injects_over_the_wire(self):
        with ServiceDht(4) as inner:
            plan = FaultPlan(drop_rate=0.9, seed=1)
            dht = FaultyDht(inner, plan)
            inner.put("k", "v")
            dropped = 0
            for _ in range(20):
                try:
                    dht.get("k")
                except NodeUnreachableError:
                    dropped += 1
            assert dropped >= 1
            assert dht.stats.faults_dropped == dropped

    def test_tracer_attaches_with_zero_index_changes(self):
        from repro.common.config import IndexConfig
        from repro.core.index import MLightIndex

        with ServiceDht(4) as dht:
            index = MLightIndex(
                dht,
                IndexConfig(
                    dims=2, split_threshold=8, merge_threshold=4,
                    tracing=True,
                ),
            )
            assert isinstance(index.tracer, Tracer)
            assert dht.network.tracer is index.tracer
            index.insert((0.25, 0.75), "a")
            index.lookup((0.25, 0.75))
            kinds = {span.kind for span in index.tracer.spans}
            assert "dht" in kinds and "query" in kinds


class TestWallClock:
    def test_now_is_monotonic_and_advance_sleeps(self):
        clock = WallClock()
        before = clock.now
        clock.advance(0.01)
        assert clock.now - before >= 0.01
        clock.advance(0.0)  # no-op, must not raise


class TestPercentile:
    def test_empty_and_singleton(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0

    def test_interpolates(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 99) == pytest.approx(99.01)
        assert percentile(values, 95) == pytest.approx(95.05)


class TestRequestTrace:
    def test_mix_is_deterministic_and_weighted(self):
        points = [(0.1, 0.2), (0.3, 0.4)]
        trace = request_trace(points, 300, seed=5)
        again = request_trace(points, 300, seed=5)
        assert trace == again
        kinds = [op.kind for op in trace]
        assert kinds.count("lookup") > kinds.count("range")
        assert all(
            op.region is not None for op in trace if op.kind == "range"
        )

    def test_regions_stay_in_the_unit_cube(self):
        points = [(0.001, 0.999)]
        for op in request_trace(points, 50, range_fraction=1.0,
                                lookup_fraction=0.0, insert_fraction=0.0):
            assert all(0.0 <= low for low in op.region.lows)
            assert all(high <= 1.0 for high in op.region.highs)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ReproError):
            request_trace([], 10)
        with pytest.raises(ReproError):
            request_trace([(0.5, 0.5)], 10, lookup_fraction=-1.0)
        with pytest.raises(ReproError):
            request_trace([(0.5, 0.5)], 10, span=0.0)


class TestLoadGenerator:
    def _loaded_index(self, n=300):
        from repro.common.config import IndexConfig
        from repro.core.index import MLightIndex
        from repro.datasets.synthetic import uniform_points
        from repro.runtime import create_dht

        points = uniform_points(n, seed=11)
        dht = create_dht(kind="asyncio", n_peers=2)
        index = MLightIndex(
            dht, IndexConfig(dims=2, split_threshold=20, merge_threshold=10)
        )
        index.insert_many(points)
        return index, points

    def test_open_loop_run_reports_percentiles(self):
        index, points = self._loaded_index()
        try:
            report = run_load(
                index,
                request_trace(points, 100, seed=2),
                target_qps=400.0,
                workers=8,
                runtime_label="asyncio",
                records_loaded=len(points),
                n_peers=2,
            )
        finally:
            index.dht.close()
        assert report.completed == 100
        assert report.failed == 0
        assert report.achieved_qps > 0
        assert (
            report.latency_ms["p50"]
            <= report.latency_ms["p95"]
            <= report.latency_ms["p99"]
            <= report.latency_ms["max"]
        )
        rendered = report.render()
        assert "p99 latency (ms)" in rendered
        assert "achieved QPS" in rendered
        # Per-operation-type percentiles ride along in the report and
        # the rendered table.
        assert set(report.latency_ms_by_op) <= {"lookup", "range", "insert"}
        assert "lookup" in report.latency_ms_by_op
        for summary in report.latency_ms_by_op.values():
            assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert "latency by operation type" in rendered

    def test_failed_operations_are_counted_not_raised(self):
        index, points = self._loaded_index(50)
        bad = [Operation("bogus", (0.5, 0.5))]
        try:
            report = run_load(
                index,
                request_trace(points, 10, seed=2) + bad,
                target_qps=1000.0,
            )
        finally:
            index.dht.close()
        assert report.failed == 1
        assert report.completed == 10

    def test_publish_writes_json(self, tmp_path):
        report = LoadReport(
            runtime="asyncio", peers=2, records=10, target_qps=100.0,
            duration_s=0.1, operations=10, completed=10, failed=0,
            achieved_qps=99.0,
            latency_ms={"p50": 1.0, "p95": 2.0, "p99": 3.0,
                        "mean": 1.2, "max": 3.5},
        )
        path = publish(report, tmp_path / "nested" / "load.json")
        data = json.loads(path.read_text())
        assert data["latency_ms"]["p99"] == 3.0
        assert data["achieved_qps"] == 99.0
        assert report.achieved_fraction() == pytest.approx(0.99)

    def test_validation(self):
        index, points = self._loaded_index(50)
        try:
            with pytest.raises(ReproError):
                run_load(index, [], target_qps=10.0)
            with pytest.raises(ReproError):
                run_load(
                    index, request_trace(points, 5), target_qps=0.0
                )
        finally:
            index.dht.close()
