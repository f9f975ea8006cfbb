"""The asyncio service runtime: live peers speaking wire frames.

Where :class:`~repro.net.simnet.SimNetwork` runs all peers in one
thread of control under a virtual clock, this runtime serves every
peer on one asyncio event loop under a real clock.  A request frame is
served where it lands: where it is sent (``transport="asyncio"``), or
off a real loopback socket by the peer's TCP listener
(``transport="tcp"``).  Either way ``serve_frame`` dispatches it: a
plain opcode is served synchronously, an installed handler as a
coroutine.  A peer is no task of its own; the loop interleaves requests
at their awaits.  One exchange is two plain calls, ``ServiceDht._send``
(route, frame, send) and ``ServiceDht._settle`` (account, rebuild an
error reply); in process a plain opcode's reply comes back from the
send itself, so only a TCP reply or an installed handler is awaited.

The whole thing hides behind the standard :class:`~repro.dht.api.Dht`
facade: the index layers, the retry/fault wrappers and the tracer
attach unchanged.  The facade's synchronous exchanges and rounds cross
one bridge into the loop, from any number of caller threads (the load
generator's workers, say).  In process an operation runs on the calling
thread as a chain of plain calls, one caller at a time, with the loop
marked running meanwhile; the loop turns only if the operation suspends
(an installed handler that awaits).  Over TCP a dedicated event-loop
thread keeps the loop running, so concurrent clients' socket round
trips overlap.

Placement is runtime-neutral consistent hashing
(:class:`~repro.dht.peer.HashRing` — successor-on-ring, the ownership
rule Chord applies to live node identifiers).  Routed overlay
*protocols* remain a simulated-runtime concern; what this runtime
reproduces is the service boundary: wire format, concurrent requests
and wall-clock latency.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import threading
import time

# Both are in ``asyncio.__all__``, for event-loop implementations: the
# in-process bridge marks its loop running while an operation runs on
# the caller's thread, without turning the loop.
from asyncio import _get_running_loop, _set_running_loop
from collections.abc import Awaitable, Coroutine, Iterator
from typing import TYPE_CHECKING, Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.core.codec import encode_row
from repro.dht.api import APPEND, CALL, UNTRACED, BatchFailure, Dht
from repro.dht.durable import open_peer_store, peer_data_dir
from repro.dht.peer import HashRing, KeyValuePeer
from repro.dht.storage import PeerStore
from repro.net.stats import NetworkStats
from repro.service.wire import (
    Frame,
    FrameDecoder,
    REQUEST_OPS,
    Op,
    WireError,
    decode_frame,
    encode_error,
    encode_frame,
    encode_reply,
    encode_request,
    frame_wire_sizes,
    rebuild_error,
)

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

#: ``NetworkStats`` message types per opcode: its request's, its reply's.
_MESSAGE_TYPES = {op: (op.name.lower(), op.name.lower() + ":reply") for op in Op}

#: Peer op (``KeyValuePeer.serve`` dispatch) per request opcode, and
#: back: a peer op travels as the request opcode of its name.
_OP_NAMES = {op: _MESSAGE_TYPES[op][0] for op in REQUEST_OPS}
_WIRE_OPS = {name: op for op, name in _OP_NAMES.items()}

#: Read per frame, as a module global: an ``Op`` attribute read costs
#: more than a frame's routing.
_REPLY_ERR = Op.REPLY_ERR

TRANSPORTS = ("asyncio", "tcp")

_READ_CHUNK = 64 * 1024


class WallClock:
    """Real time behind the simulated clock's ``now``/``advance`` shape.

    ``now`` is seconds since the runtime started; ``advance`` — what a
    backoff wrapper calls to wait — actually sleeps, because on this
    runtime waiting costs wall time instead of virtual time.
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    @property
    def now(self) -> float:
        return time.perf_counter() - self._t0

    def advance(self, delay: float) -> None:
        if delay > 0:
            time.sleep(delay)


class ServiceTransport:
    """What the service runtime exposes where a ``SimNetwork`` would be.

    Ducks the attributes the rest of the stack reaches for on
    ``dht.network`` — ``stats`` (a :class:`NetworkStats` fed wall-clock
    spans and modelled frame bytes), ``clock`` (a :class:`WallClock`)
    and ``tracer`` — so :meth:`repro.obs.trace.Tracer.attach`,
    :class:`~repro.obs.registry.MetricsRegistry` and
    :class:`~repro.dht.retry.RetryingDht` wire up without knowing which
    runtime they landed on.
    """

    __slots__ = ("stats", "clock", "tracer")

    def __init__(self) -> None:
        self.stats = NetworkStats()
        self.clock = WallClock()
        self.tracer: "Tracer | None" = None


def serve_request(peer: KeyValuePeer, frame: Frame) -> bytes:
    """Execute one request frame against *peer*; returns the reply frame.

    Every failure — protocol or storage — becomes a ``REPLY_ERR``
    frame: a service peer answers, it never lets an exception escape
    into the task or connection handler serving it.
    """
    try:
        op_name = _OP_NAMES.get(frame.op)
        if op_name is None:
            raise ReproError(f"frame opcode {frame.op!r} is not a request")
        key, value = frame.body
        return encode_reply(frame.request_id, peer.serve(op_name, key, value))
    except Exception as exc:
        return encode_error(frame.request_id, exc)


def start_eagerly(loop, coro, context: contextvars.Context) -> asyncio.Future:
    """Run *coro* in *context* up to its first real suspension, now.

    A coroutine that finishes there comes back as a completed future:
    no Task, no loop turn.  One that suspends is continued by a Task
    driving :class:`_Resumed`, which runs every later step in the same
    *context* — a tracer span opened before the suspension resets its
    ``ContextVar`` token after it, and only that Context accepts it.
    Before its first suspension the coroutine runs in no Task, so
    ``asyncio.timeout`` (and 3.12's ``wait_for``) must follow an await
    that suspends.
    """
    future = loop.create_future()
    try:
        yielded = context.run(coro.send, None)
    except StopIteration as done:
        future.set_result(done.value)
    except BaseException as error:
        future.set_exception(error)
    else:
        return loop.create_task(_Resumed(coro, yielded, context))
    return future


class _Resumed(Coroutine):
    """A suspended eager coroutine as its Task sees it: first the value
    it already yielded, then each ``send`` / ``throw`` forwarded inside
    its own Context."""

    __slots__ = ("_coro", "_yielded", "_context")

    def __init__(self, coro, yielded: Any, context: contextvars.Context):
        self._coro, self._yielded, self._context = coro, [yielded], context

    def send(self, value: Any) -> Any:
        if self._yielded:
            return self._yielded.pop()
        return self._context.run(self._coro.send, value)

    def throw(self, *error: Any) -> Any:
        self._yielded.clear()
        return self._context.run(self._coro.throw, *error)

    def __await__(self):
        raise TypeError("a resumed coroutine is driven by its Task only")


class _ServicePeer:
    """One service peer: its storage and, on the TCP transport, its
    listener and the client connection to it.

    Constructed inside the runtime's event loop.  A peer is no task of
    its own: the in-process transport serves a request frame where it
    is sent, in the sender's call, and the TCP listener serves the same
    frames off the socket, one connection handler per client.  The extension
    handlers and the push sink are the runtime's, read per frame, so a
    restarted peer serves whatever was installed before its crash.
    """

    def __init__(self, peer: KeyValuePeer, runtime: "ServiceDht") -> None:
        self.peer = peer
        self.runtime = runtime
        #: Cleared first thing in :meth:`stop`, before it awaits
        #: anything: a request that reaches a stopping peer is refused.
        self.live = True
        self.channel: _TcpChannel | None = None
        self.server: asyncio.AbstractServer | None = None
        #: One locked ``write(data)`` coroutine function per connection.
        self._connections: set[Any] = set()
        self._ext_tasks: set[asyncio.Task] = set()

    async def listen(self) -> None:
        """The TCP transport: open a listener and connect to it."""
        self.server = await asyncio.start_server(
            self._handle_connection, host="127.0.0.1", port=0
        )
        self.channel = _TcpChannel(self.runtime)
        await self.channel.connect(self.server.sockets[0].getsockname()[1])

    def call(self, frame_bytes: bytes, request_id: int) -> "Frame | Coroutine":
        """Send one request frame to this peer.  In process a plain
        opcode is served right here: its reply :class:`Frame` comes back
        at once.  Otherwise (TCP, an installed handler) a coroutine
        comes back, to await for the reply."""
        if not self.live:
            raise NodeUnreachableError(
                f"service peer {self.peer.name!r} is down"
            )
        if self.channel is not None:
            return self.channel.call(frame_bytes, request_id)
        reply = self.serve_frame(decode_frame(frame_bytes))
        if type(reply) is bytes:
            return decode_frame(reply)
        return self._decoded(reply)

    async def _decoded(self, reply: Coroutine) -> Frame:
        return decode_frame(await reply)

    def serve_frame(self, frame: Frame) -> "bytes | Coroutine":
        """Serve one request frame: the installed handler of its opcode,
        else :func:`serve_request`.  A plain opcode's reply frame comes
        back at once, a handler's as a coroutine to await; a failure is
        a ``REPLY_ERR`` frame, never an exception."""
        handler = self.runtime._handlers.get(frame.op)
        if handler is None:
            return serve_request(self.peer, frame)
        return self._handle(handler, frame)

    async def _handle(self, handler, frame: Frame) -> bytes:
        try:
            return await handler(self.peer, frame)
        except Exception as exc:
            return encode_error(frame.request_id, exc)

    async def _handle_connection(self, reader, writer) -> None:
        decoder = FrameDecoder()
        loop = asyncio.get_running_loop()
        # Every frame starts eagerly, in arrival order, and most are
        # answered right there.  One whose serving suspends (a handler
        # awaiting other peers) is continued by a Task and its reply can
        # overtake the frames behind it, so socket writes interleave
        # behind one lock per connection.
        lock = asyncio.Lock()

        async def write(data: bytes) -> None:
            async with lock:
                writer.write(data)
                await writer.drain()

        async def answer(frame: Frame) -> None:
            reply = self.serve_frame(frame)
            if type(reply) is not bytes:
                reply = await reply
            try:
                await write(reply)
            except (ConnectionError, OSError):
                pass  # the connection is gone

        self._connections.add(write)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in decoder.feed(data):
                    served = start_eagerly(
                        loop, answer(frame), contextvars.copy_context()
                    )
                    if not served.done():
                        self._ext_tasks.add(served)
                        served.add_done_callback(self._ext_tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError, WireError):
            pass  # the client hung up or garbled the stream: drop it
        finally:
            self._connections.discard(write)
            writer.close()

    async def push(self, frame_bytes: bytes) -> int:
        """Deliver one unsolicited frame (``request_id == 0``) to the
        connected client(s), or to the runtime's push sink on the
        in-process transport.  Returns the number of deliveries."""
        delivered = 0
        if self._connections:
            for write in list(self._connections):
                try:
                    await write(frame_bytes)
                    delivered += 1
                except (ConnectionError, OSError):
                    continue
        elif self.runtime._push_sink is not None:
            self.runtime._push_sink(decode_frame(frame_bytes))
            delivered += 1
        return delivered

    async def stop(self) -> None:
        """Crash or shut down: refuse requests from here on, drop the
        client connection, let suspended frames finish, close
        the listener and the store's durable backend."""
        self.live = False
        try:
            if self.channel is not None:
                await self.channel.close()
            if self._ext_tasks:
                await asyncio.gather(
                    *list(self._ext_tasks), return_exceptions=True
                )
            if self.server is not None:
                self.server.close()
                await self.server.wait_closed()
        finally:
            self.peer.store.close_backend()


class _TcpChannel:
    """Client side of one node's TCP listener.

    Writes request frames down one connection and demultiplexes replies
    by request id, so concurrent requests to the same peer share the
    socket instead of a connection storm.  Once the read loop has ended
    nothing can answer, so every later call is refused at once.
    """

    def __init__(self, runtime: "ServiceDht") -> None:
        #: Whose push sink receives frames with no pending request
        #: (unsolicited server-to-client pushes, ``request_id == 0``).
        self.runtime = runtime
        self._reader = None
        self._writer = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}

    async def connect(self, port: int) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        self._reader_task = asyncio.create_task(self._read_loop())

    async def call(self, frame_bytes: bytes, request_id: int) -> Frame:
        if self._reader_task.done():
            raise NodeUnreachableError("service connection closed")
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(frame_bytes)
        await self._writer.drain()
        return await future

    async def _read_loop(self) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await self._reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in decoder.feed(data):
                    future = self._pending.pop(frame.request_id, None)
                    if future is not None:
                        if not future.done():
                            future.set_result(frame)
                    elif self.runtime._push_sink is not None:
                        self.runtime._push_sink(frame)
        except (ConnectionError, OSError, WireError):
            pass  # the peer hung up or garbled the stream: nothing answers
        finally:
            error = NodeUnreachableError("service connection closed")
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._reader_task is not None:
            await self._reader_task


class _Bridge:
    """The blocking entry into the runtime's event loop.

    :meth:`run` is the one crossing every sync facade call makes; the
    subclass decides where the operation runs: on the calling thread
    itself (:class:`_CallerLoop`, in process) or on a dedicated loop
    thread (:class:`_LoopThread`, TCP).
    """

    #: Whether the operation runs on the calling thread: then that
    #: thread must be running no event loop already, not even another.
    runs_on_caller = False

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()

    def run(self, coro) -> Any:
        """Run *coro* on the loop, blocking until it is done.

        One crossing: the coroutine starts eagerly (:func:`start_eagerly`)
        in a copy of the caller's context, so tracer spans it opens
        parent under the caller's open span.  An operation that never
        suspends — any in-process one without a suspending handler —
        completes right there; one that suspends finishes as a Task.
        Either way the result or exception surfaces here.
        """
        running = _get_running_loop()
        if running is not None and (running is self.loop or self.runs_on_caller):
            coro.close()
            raise ReproError(
                "blocking ServiceDht call made on the loop thread of a "
                "running event loop (from an installed handler?); await "
                "ServiceDht.call_captured there, or call from another thread"
            )
        return self._cross(coro).result()


class _CallerLoop(_Bridge):
    """The in-process bridge, with no thread of its own: the calling
    thread runs the operation, under one gate, as plain calls with the
    loop marked running; it turns the loop only if the operation
    suspended, until it is done.  Concurrent callers take turns, each
    call whole; a loop thread would serialise them the same way, since
    an in-process operation rarely suspends, but costs a hand-off
    between two threads per call."""

    runs_on_caller = True

    def __init__(self) -> None:
        super().__init__()
        self._gate = threading.Lock()

    def _cross(self, coro) -> asyncio.Future:
        loop = self.loop
        with self._gate:
            _set_running_loop(loop)
            try:
                future = start_eagerly(loop, coro, contextvars.copy_context())
            finally:
                _set_running_loop(None)
            if not future.done():
                future.add_done_callback(lambda _: loop.stop())
                loop.run_forever()
        return future

    def stop(self) -> None:
        with self._gate:
            self.loop.close()


class _LoopThread(_Bridge):
    """The TCP bridge: a dedicated thread keeps the loop running, so
    concurrent clients' socket round trips overlap on it."""

    def __init__(self) -> None:
        super().__init__()
        self._thread = threading.Thread(
            target=self._main, daemon=True, name="repro-service-loop"
        )
        self._thread.start()

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()

    def _cross(self, coro) -> asyncio.Future:
        futures: list[asyncio.Future] = []
        done = threading.Lock()
        done.acquire()

        def start() -> None:
            # This callback runs in a copy of the caller's context.
            future = start_eagerly(self.loop, coro, contextvars.copy_context())
            futures.append(future)
            if future.done():
                done.release()
            else:
                future.add_done_callback(lambda _: done.release())

        self.loop.call_soon_threadsafe(start)
        done.acquire()
        return futures[0]

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)


class ServiceDht(Dht):
    """The :class:`Dht` facade over the asyncio/TCP service runtime.

    ``transport="asyncio"`` serves each frame where it is sent, in the
    sender's call; ``transport="tcp"`` sends the same frames through real loopback
    sockets (one listener per peer, one multiplexed client connection
    each).  Either way the runtime starts lazily on first use; call
    :meth:`close` (or use the instance as a context manager) to tear
    the peers, sockets and loop (TCP: its thread) down deterministically.
    """

    #: A peer's store holds what a frame carried, not the client's object.
    holds_copies = True

    def __init__(
        self,
        n_peers: int = 8,
        *,
        transport: str = "asyncio",
        virtual_nodes: int = 1,
        peer_prefix: str = "peer",
        durability: str | None = None,
        data_dir: str | None = None,
    ) -> None:
        super().__init__()
        if n_peers < 1:
            raise ReproError(f"n_peers must be >= 1, got {n_peers}")
        if transport not in TRANSPORTS:
            raise ReproError(
                f"unknown service transport {transport!r}; expected one "
                f"of {TRANSPORTS}"
            )
        self._transport_kind = transport
        #: Durable backend kind each peer's store journals into
        #: (``None``: in-memory only; :meth:`restart` unavailable).
        self.durability = durability
        self.data_dir = peer_data_dir(durability, data_dir, "service")
        self._ring = HashRing(
            [f"{peer_prefix}-{index:04d}" for index in range(n_peers)],
            virtual_nodes,
        )
        self.network = ServiceTransport()
        self._request_ids = itertools.count(1)
        #: The bridge into the running runtime: ``None`` before
        #: :meth:`start` and after :meth:`close`, which alone assign it,
        #: under ``_lifecycle``.
        self._live_bridge: _Bridge | None = None
        self._lifecycle = threading.Lock()
        self._peers: dict[str, _ServicePeer] = {}
        #: Extension handlers and push sink, held here once and read by
        #: every peer per frame, a restarted one included.
        self._handlers: dict[int, Any] = {}
        self._push_sink: Any | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ServiceDht":
        """Build the bridge and every peer, once (idempotent, and safe
        for first calls racing on several threads)."""
        with self._lifecycle:
            if self._closed:
                raise ReproError("this ServiceDht has been closed")
            if self._live_bridge is None:
                tcp = self._transport_kind == "tcp"
                bridge = _LoopThread() if tcp else _CallerLoop()
                bridge.run(self._start_nodes())
                self._live_bridge = bridge
        return self

    async def _start_nodes(self) -> None:
        for name in self._ring.peers():
            await self._start_peer(
                name, open_peer_store(self.durability, self.data_dir, name)
            )

    async def _start_peer(self, name: str, store: PeerStore) -> None:
        peer = _ServicePeer(KeyValuePeer(name, store), self)
        self._peers[name] = peer
        if self._transport_kind == "tcp":
            await peer.listen()

    def close(self) -> None:
        """Stop peers, close sockets and the loop (joining the TCP
        transport's loop thread)."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            bridge, self._live_bridge = self._live_bridge, None
            if bridge is not None:
                bridge.run(self._stop_nodes())
                bridge.stop()

    async def _stop_nodes(self) -> None:
        for peer in self._peers.values():
            if peer.live:
                await peer.stop()

    # ------------------------------------------------------------------
    # Membership-ish lifecycle: crash and durable restart
    # ------------------------------------------------------------------
    #
    # Placement is a fixed hash ring, so peers never join or leave —
    # but a peer can crash and, with durability enabled, come back
    # holding its pre-crash store.  Ownership never moves while a peer
    # is down (requests to it fail instead), so restart needs no
    # reconcile/re-home traffic here: recovery is replay-only.

    def _member(self, name: str) -> _ServicePeer:
        """The peer of ring member *name*.  Membership is the ring's to
        decide: the peers exist only once the runtime has started, which
        this does."""
        if name not in self._ring.peers():
            raise ReproError(f"unknown service peer {name!r}")
        self.start()
        return self._peers[name]

    def fail(self, name: str) -> None:
        """Crash one service peer: it stops serving, requests to it
        raise :class:`NodeUnreachableError`, its in-memory store is
        gone.  Durable state stays on disk for :meth:`restart`."""
        peer = self._member(name)
        if not peer.live:
            raise ReproError(f"service peer {name!r} is already down")
        self._bridge().run(peer.stop())

    def _recover(self, name: str) -> None:
        if self._member(name).live:
            raise ReproError(f"service peer {name!r} is already live")
        store = open_peer_store(
            self.durability, self.data_dir, name, recover=True
        )
        self.stats.restarts += 1
        self.stats.restart_replayed += len(store)
        self._bridge().run(self._start_peer(name, store))

    # ------------------------------------------------------------------
    # Extension opcodes (the dissemination plane)
    # ------------------------------------------------------------------

    def install_handler(self, op: Op, handler: Any) -> None:
        """Serve extension opcode *op* with ``async handler(peer, frame)
        -> reply bytes`` on every peer, restarted ones included.

        A handler runs where its frame is delivered — started eagerly
        by the sender or by the TCP listener, and continued by a Task of
        its own only if it suspends — never in a serve loop, so it may
        itself await :meth:`call_captured` to other peers or to its own.
        Until its first suspension it runs in no Task
        (:func:`start_eagerly`).
        """
        self._handlers[int(op)] = handler

    def set_push_sink(self, sink: Any) -> None:
        """Route unsolicited (``request_id == 0``) frames to *sink*.

        On the TCP transport each client channel's read loop hands the
        sink its pushes; on the in-process transport a peer calls it
        directly, in place of the missing server-to-client socket.
        """
        self._push_sink = sink

    def push_to_clients(self, name: str, frame_bytes: bytes) -> "Any":
        """Awaitable: emit one unsolicited frame from peer *name*."""
        peer = self._peers.get(name)
        if peer is None or not peer.live:
            raise NodeUnreachableError(f"service peer {name!r} is down")
        return peer.push(frame_bytes)

    def __enter__(self) -> "ServiceDht":
        return self.start()

    def _bridge(self) -> _Bridge:
        return self._live_bridge or self.start()._live_bridge

    # ------------------------------------------------------------------
    # Oracle access
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> str:
        return self._ring.peer_of(key)

    def peers(self) -> list[str]:
        return self._ring.peers()

    def items(self) -> Iterator[tuple[str, Any]]:
        """Every peer's (key, value) pairs, copied by a coroutine on the
        loop: only code the loop runs mutates the stores, so only such
        code may iterate them."""
        if self._live_bridge is None:
            return iter(())
        return iter(self._bridge().run(self._snapshot_items()))

    async def _snapshot_items(self) -> list[tuple[str, Any]]:
        return [
            pair
            for node in self._peers.values()
            for pair in node.peer.store.items()
        ]

    def key_count(self) -> int:
        """Stored keys via the non-decoding ``keys()`` walk."""
        if self._live_bridge is None:
            return 0
        return self._bridge().run(self._count_keys())

    async def _count_keys(self) -> int:
        return sum(len(node.peer.store) for node in self._peers.values())

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def _send(
        self, op: Op, key: str, value: Any, body: Any, peer: str | None
    ) -> tuple:
        """Route, frame and send one request to *peer*, by default the
        owner of *key*; never raises.  Returns what :meth:`_settle`
        takes: the frame's message types and modelled sizes (``None``
        if no frame went out) and its reply — the :class:`Frame`, an
        awaitable of it (TCP, an installed handler), or the exception
        sending raised.

        *body* replaces the ``(key, value)`` payload of an extension
        opcode; *key* still routes and prices the frame.
        """
        priced = None
        try:
            node = self._peers.get(self._ring.peer_of(key) if peer is None else peer)
            if node is None:
                raise NodeUnreachableError(f"no service peer {peer!r}")
            request_id = next(self._request_ids)
            if body is None:
                frame_bytes = encode_request(op, request_id, key, value)
            else:
                frame_bytes = encode_frame(op, request_id, body)
                value = body
            priced = (_MESSAGE_TYPES[op], *frame_wire_sizes(op, key, value))
            return priced, node.call(frame_bytes, request_id)
        except BaseException as error:
            return priced, error

    def _settle(self, priced: tuple | None, reply: Any) -> Any:
        """Account one sent exchange, once, and return its reply body:
        *reply* is the reply :class:`Frame` or the exception sending or
        awaiting it raised, which is raised here, as is the error a
        ``REPLY_ERR`` frame carries."""
        stats = self.network.stats
        if type(reply) is not Frame:
            if priced is not None:
                stats.record_exchange(*priced)
            raise reply
        stats.record_exchange(
            *priced, *frame_wire_sizes(reply.op, "", reply.body)
        )
        if reply.op is _REPLY_ERR:
            raise rebuild_error(reply.body)
        return reply.body

    async def _request(
        self, op: Op, key: str, value: Any = None, *, body: Any = None,
        peer: str | None = None, timed: bool = True,
    ) -> Any:
        """One exchange (:meth:`_send`, the reply awaited only if it has
        to be, :meth:`_settle`); returns the reply body.  A *timed*
        exchange books its wall span — frame issued to reply decoded —
        answered or not; a round's elements are not timed, the round
        books its critical path once."""
        clock = self.network.clock
        started = clock.now if timed else 0.0
        try:
            priced, reply = self._send(op, key, value, body, peer)
            if type(reply) is not Frame and not isinstance(reply, BaseException):
                try:
                    reply = await reply
                except BaseException as error:
                    reply = error
            return self._settle(priced, reply)
        finally:
            if timed:
                self.network.stats.record_wall_span(clock.now - started)

    async def call_captured(
        self, op: Op, key: str, value: Any = None, *, body: Any = None,
        peer: str | None = None,
    ) -> Any:
        """Handler half of the extension seam: await one *op* frame to
        *peer*, by default the owner of *key*, from code already on the
        loop (an installed handler).  An unreachable peer comes back as
        a :class:`BatchFailure` in place of the reply body."""
        try:
            return await self._request(
                op, key, value, body=body, peer=peer, timed=False
            )
        except NodeUnreachableError as error:
            return BatchFailure(error)

    def call(self, op: Op, key: str, value: Any = None, *, body: Any = None) -> Any:
        """Client half of the extension seam: send one *op* frame to
        the owner of *key* from the calling thread and return the reply
        body.  *body* replaces the ``(key, value)`` payload for
        extension opcodes served by :meth:`install_handler`."""
        return self._bridge().run(self._request(op, key, value, body=body))

    async def _gather_round(self, requests: list[tuple]) -> list[Any]:
        """:meth:`run_round` on the loop: every request's frame sent at
        once, only the replies still to come awaited, every exchange
        settled in call order.  An unreachable peer's outcome is a
        :class:`BatchFailure`; any other failure, the first in call
        order, is raised once every element is done."""
        clock, tracer = self.network.clock, self.network.tracer
        started = clock.now
        with (tracer.span("net", "message_round") if tracer else UNTRACED) as span:
            sent, pending = [], []
            for op, key, value, peer in requests:
                priced, reply = self._send(_WIRE_OPS[op], key, value, None, peer)
                if type(reply) is not Frame and not isinstance(reply, BaseException):
                    reply = start_eagerly(
                        asyncio.get_running_loop(), reply,
                        contextvars.copy_context(),
                    )
                    if not reply.done():
                        pending.append(reply)
                sent.append((priced, reply))
            if pending:
                await asyncio.wait(pending)
            outcomes, failure = [], None
            for priced, reply in sent:
                if isinstance(reply, asyncio.Future):
                    reply = reply.exception() or reply.result()
                try:
                    outcomes.append(self._settle(priced, reply))
                except NodeUnreachableError as error:
                    outcomes.append(BatchFailure(error))
                except BaseException as error:
                    if failure is None:
                        failure = error
            if failure is not None:
                raise failure
            elapsed = clock.now - started
            if span is not None:
                span.attrs["fanout"] = len(requests)
                span.attrs["critical_path"] = elapsed
        # The round's wall span is its critical path: the elements ran
        # concurrently, so the batch costs the slowest element, exactly
        # the accounting SimNetwork.message_round applies to the
        # simulated clock.  The simulated-latency axis stays untouched.
        self.network.stats.record_round(len(requests), 0.0)
        self.network.stats.record_wall_span(elapsed)
        return outcomes

    # ------------------------------------------------------------------
    # Whole operations on the loop: one bridge crossing each
    # ------------------------------------------------------------------
    #
    # The sync facade crosses the bridge once per request or round.  An
    # operation is a chain of dependent steps, so driving it from the
    # client thread pays that crossing per step; driving it here pays
    # it once.  ``drive_on_loop`` is ``Dht.drive`` awaited on the loop
    # over ``perform_on_loop`` — same map (``Dht.map_step``), same meters
    # and spans (``Dht._meter``), same frames, no thread hop between
    # steps.  Only a ``CALL`` step comes back: a hook makes blocking
    # facade calls of its own, which code the loop runs must not, so it
    # runs on the caller's thread between two loop segments; an
    # installed handler awaits its own (a peer's forward) on the loop.

    def drive(self, operation) -> Any:
        run = self._bridge().run
        try:
            step = run(self.drive_on_loop(operation))
            while step[0] is CALL:
                step = run(self.drive_on_loop(operation, step[1](*step[2])))
            return step[1]
        finally:
            operation.close()  # a hook raised: unwind the operation

    async def drive_on_loop(self, operation, outcome: Any = None) -> tuple:
        """Send *outcome* and advance *operation* on the loop until it
        yields a ``CALL`` step (returned as it is) or returns
        (``(None, result)``).  The loop half of :meth:`drive`, public
        for code already on the loop (an installed handler)."""
        try:
            step = operation.send(outcome)
            while step[0] is not CALL:
                try:
                    outcome = await self.perform_on_loop(step)
                except BaseException as error:
                    step = operation.throw(error)
                else:
                    step = operation.send(outcome)
            return step
        except StopIteration as done:
            return None, done.value

    async def perform_on_loop(self, step: tuple) -> Any:
        """:meth:`Dht.perform` for code already on the loop
        (:meth:`drive_on_loop`), any step but ``CALL``: the same map
        and meter, its exchanges awaited here."""
        request, settle = self.map_step(step)
        with self._meter(step):
            if type(request) is tuple:
                reply = await self.ask_on_loop(*request)
            else:
                reply = await self._gather_round(request) if request else []
            return reply if settle is None else settle(step, reply)

    # ------------------------------------------------------------------
    # The exchange: one frame, sent from the loop
    # ------------------------------------------------------------------

    def exchange(self, peer: str, op: str, key: str, value: Any = None) -> Any:
        return self._bridge().run(self.ask_on_loop(op, key, value, peer))

    def ask_on_loop(
        self, op: str, key: str, value: Any = None, peer: str | None = None
    ) -> Awaitable:
        """:meth:`Dht.ask` for code already on the loop, as an awaitable:
        one frame to *peer*, or to *key*'s owner — the ring places a key
        on one peer, so a request is one exchange and its reply needs no
        combining.  An insert's one record (``APPEND``) travels as its
        codec row."""
        if op is APPEND:
            value = encode_row(value.key, value.value)
        return self._request(_WIRE_OPS[op], key, value, peer=peer)

    def run_round(self, requests: list[tuple]) -> list[Any]:
        return self._bridge().run(self._gather_round(requests))
