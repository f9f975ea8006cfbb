"""The asyncio service runtime: every peer an independent actor.

Where :class:`~repro.net.simnet.SimNetwork` runs all peers in one
thread of control under a virtual clock, this runtime gives each peer
its own asyncio task draining an inbox of wire frames — real
concurrency under a real clock — and optionally a real TCP listener
(``transport="tcp"``) so the frames cross actual loopback sockets.

The whole thing hides behind the standard :class:`~repro.dht.api.Dht`
facade: the index layers, the retry/fault wrappers and the tracer
attach unchanged.  The facade's synchronous
``_do_*`` primitives bridge into a dedicated event-loop thread, so any
number of caller threads (the load generator's workers, say) issue
requests concurrently and the actors interleave them per-frame.

Placement is runtime-neutral consistent hashing
(:class:`~repro.dht.peer.HashRing` — successor-on-ring, the ownership
rule Chord applies to live node identifiers).  Routed overlay
*protocols* remain a simulated-runtime concern; what this runtime
reproduces is the service boundary: wire format, per-peer concurrency,
and wall-clock latency.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import threading
import time
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.dht.api import (
    CALL, GET, GET_MANY, PUT_MANY, REMOVE, REWRITE, UNTRACED,
    BatchFailure, Dht, _absent_key, _raise_batch_failures,
)
from repro.dht.durable import open_peer_store, peer_data_dir
from repro.dht.peer import HashRing, KeyValuePeer
from repro.dht.storage import PeerStore
from repro.net.stats import NetworkStats
from repro.service.wire import (
    Frame,
    FrameDecoder,
    Op,
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

#: Dht primitive name per request opcode (KeyValuePeer.serve dispatch).
_OP_NAMES = {
    Op.LOOKUP: "lookup",
    Op.GET: "get",
    Op.PUT: "put",
    Op.REMOVE: "remove",
    Op.CONTAINS: "contains",
}

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
    into its serving task or connection handler.
    """
    try:
        op_name = _OP_NAMES.get(frame.op)
        if op_name is None:
            raise ReproError(f"frame opcode {frame.op!r} is not a request")
        key, value = frame.body
        return encode_reply(frame.request_id, peer.serve(op_name, key, value))
    except Exception as exc:
        return encode_error(frame.request_id, exc)


def _resolver(future: asyncio.Future):
    """The reply sink of an inbox frame: resolve its caller's future."""
    async def resolve(reply: bytes) -> None:
        if not future.done():
            future.set_result(reply)
    return resolve


class _ActorNode:
    """One service peer: storage, an inbox task, optionally a listener.

    Constructed inside the runtime's event loop.  The inbox carries
    ``(frame_bytes, reply_future)`` pairs — the in-process equivalent
    of a datagram transport — while the TCP listener speaks the same
    frames over real sockets, one connection handler per client.
    """

    def __init__(
        self,
        peer: KeyValuePeer,
        handlers: dict[int, Any] | None = None,
    ) -> None:
        self.peer = peer
        self.inbox: asyncio.Queue = asyncio.Queue()
        #: Extension dispatch: ``Op -> async handler(peer, frame) ->
        #: reply bytes``.  Extension frames run as *spawned tasks* so a
        #: handler that forwards to other actors (prefix multicast, and
        #: in particular to *this* actor again) never deadlocks the
        #: sequential inbox/connection loop behind its own reply.
        self.handlers: dict[int, Any] = dict(handlers or {})
        #: In-process delivery target for unsolicited frames (the
        #: asyncio-transport stand-in for a server->client socket
        #: write); installed by the runtime's ``set_push_sink``.
        self.push_sink: Any | None = None
        #: One locked ``write(data)`` coroutine function per connection.
        self._connections: set[Any] = set()
        self._ext_tasks: set[asyncio.Task] = set()
        self.task = asyncio.create_task(
            self._serve(), name=f"repro-node-{peer.name}"
        )
        self.server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    async def start_listener(self) -> None:
        self.server = await asyncio.start_server(
            self._handle_connection, host="127.0.0.1", port=0
        )
        self.port = self.server.sockets[0].getsockname()[1]

    async def call(self, frame_bytes: bytes) -> Frame:
        """In-process transport: enqueue a frame, await its reply."""
        if self.task.done():
            raise NodeUnreachableError(
                f"service peer {self.peer.name!r} has shut down"
            )
        future = asyncio.get_running_loop().create_future()
        self.inbox.put_nowait((frame_bytes, future))
        return decode_frame(await future)

    async def _serve(self) -> None:
        while True:
            item = await self.inbox.get()
            if item is None:
                break
            frame_bytes, future = item
            try:
                frame = decode_frame(frame_bytes)
            except Exception as exc:  # undecodable request frame
                if not future.done():
                    future.set_result(encode_error(0, exc))
                continue
            handler = self.handlers.get(frame.op)
            if handler is not None:
                self._spawn_ext(handler, frame, _resolver(future))
                continue
            reply = serve_request(self.peer, frame)
            if not future.done():
                future.set_result(reply)

    def _spawn_ext(self, handler, frame: Frame, reply_to) -> None:
        """Serve one extension frame as a task of its own; the reply
        (the handler's, or its error's) is awaited into *reply_to*: an
        inbox future's resolver or a connection's locked write."""
        task = asyncio.create_task(
            self._serve_ext(handler, frame, reply_to),
            name=f"repro-ext-{self.peer.name}-{frame.op}",
        )
        self._ext_tasks.add(task)
        task.add_done_callback(self._ext_tasks.discard)

    async def _serve_ext(self, handler, frame: Frame, reply_to) -> None:
        try:
            reply = await handler(self.peer, frame)
        except Exception as exc:
            reply = encode_error(frame.request_id, exc)
        try:
            await reply_to(reply)
        except (ConnectionError, OSError):
            pass  # the connection is gone

    async def _handle_connection(self, reader, writer) -> None:
        decoder = FrameDecoder()
        # Extension handlers reply out of order from spawned tasks, so
        # socket writes interleave behind one lock per connection.
        lock = asyncio.Lock()

        async def write(data: bytes) -> None:
            async with lock:
                writer.write(data)
                await writer.drain()

        self._connections.add(write)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for frame in decoder.feed(data):
                    handler = self.handlers.get(frame.op)
                    if handler is not None:
                        self._spawn_ext(handler, frame, write)
                    else:
                        await write(serve_request(self.peer, frame))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(write)
            writer.close()

    async def push(self, frame_bytes: bytes) -> int:
        """Deliver one unsolicited frame (``request_id == 0``) to the
        connected client(s), or to the in-process push sink on the
        inbox transport.  Returns the number of deliveries."""
        delivered = 0
        if self._connections:
            for write in list(self._connections):
                try:
                    await write(frame_bytes)
                    delivered += 1
                except (ConnectionError, OSError):
                    continue
        elif self.push_sink is not None:
            self.push_sink(decode_frame(frame_bytes))
            delivered += 1
        return delivered

    async def stop(self) -> None:
        self.inbox.put_nowait(None)
        await self.task
        if self._ext_tasks:
            await asyncio.gather(
                *list(self._ext_tasks), return_exceptions=True
            )
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()


class _TcpChannel:
    """Client side of one node's TCP listener.

    Writes request frames down one connection and demultiplexes replies
    by request id, so concurrent requests to the same peer share the
    socket instead of a connection storm.
    """

    def __init__(self) -> None:
        self._reader = None
        self._writer = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        #: Receives frames with no pending request (unsolicited
        #: server-to-client pushes, ``request_id == 0``).
        self.push_sink: Any | None = None

    async def connect(self, port: int) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port
        )
        self._reader_task = asyncio.create_task(self._read_loop())

    async def call(self, frame_bytes: bytes, request_id: int) -> Frame:
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
                    elif self.push_sink is not None:
                        self.push_sink(frame)
        except (ConnectionError, OSError):
            pass
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


class _LoopThread:
    """A dedicated event-loop thread plus a sync bridge into it."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
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

    def run(self, coro) -> Any:
        """Run *coro* on the loop from any other thread, blocking.

        One crossing: the coroutine starts as a task in a copy of the
        caller's context (so tracer spans it opens parent under the
        caller's open span), and its done-callback releases the
        one-shot lock the caller waits on.  The task's result or
        exception surfaces here.
        """
        if threading.get_ident() == self._thread.ident:
            coro.close()
            raise ReproError(
                "blocking ServiceDht call made on the service loop thread "
                "(from an installed handler?); it would wait for the loop "
                "it is blocking — await ServiceDht.call_captured instead"
            )
        done = threading.Lock()
        done.acquire()
        tasks: list[asyncio.Task] = []

        def start() -> None:
            task = self.loop.create_task(coro)
            tasks.append(task)
            task.add_done_callback(lambda _: done.release())

        self.loop.call_soon_threadsafe(
            start, context=contextvars.copy_context()
        )
        done.acquire()
        return tasks[0].result()

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)


class ServiceDht(Dht):
    """The :class:`Dht` facade over the asyncio/TCP service runtime.

    ``transport="asyncio"`` passes frames through per-actor inboxes;
    ``transport="tcp"`` sends the same frames through real loopback
    sockets (one listener per peer, one multiplexed client connection
    each).  Either way the runtime starts lazily on first use; call
    :meth:`close` (or use the instance as a context manager) to tear
    the actors, sockets and loop thread down deterministically.
    """

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
        #: Durable backend kind each actor's store journals into
        #: (``None``: in-memory only; :meth:`restart` unavailable).
        self.durability = durability
        self.data_dir = peer_data_dir(durability, data_dir, "service")
        self._ring = HashRing(
            [f"{peer_prefix}-{index:04d}" for index in range(n_peers)],
            virtual_nodes,
        )
        self.network = ServiceTransport()
        self._request_ids = itertools.count(1)
        self._loop_thread: _LoopThread | None = None
        self._actors: dict[str, _ActorNode] = {}
        self._channels: dict[str, _TcpChannel] = {}
        #: Extension handlers / push sink, re-applied on (re)start so a
        #: restarted actor keeps serving the dissemination opcodes.
        self._handlers: dict[int, Any] = {}
        self._push_sink: Any | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ServiceDht":
        """Spin up the loop thread and every actor (idempotent)."""
        if self._closed:
            raise ReproError("this ServiceDht has been closed")
        if self._loop_thread is None:
            self._loop_thread = _LoopThread()
            self._loop_thread.run(self._start_nodes())
        return self

    async def _start_nodes(self) -> None:
        for name in self._ring.peers():
            await self._start_actor(
                name, open_peer_store(self.durability, self.data_dir, name)
            )

    async def _start_actor(self, name: str, store: PeerStore) -> None:
        actor = _ActorNode(KeyValuePeer(name, store), self._handlers)
        actor.push_sink = self._push_sink
        self._actors[name] = actor
        if self._transport_kind == "tcp":
            await actor.start_listener()
            channel = _TcpChannel()
            channel.push_sink = self._push_sink
            await channel.connect(actor.port)
            self._channels[name] = channel

    def close(self) -> None:
        """Stop actors, close sockets, and join the loop thread."""
        if self._closed:
            return
        self._closed = True
        if self._loop_thread is not None:
            self._loop_thread.run(self._stop_nodes())
            self._loop_thread.stop()
            self._loop_thread = None

    async def _stop_nodes(self) -> None:
        for channel in self._channels.values():
            await channel.close()
        for actor in self._actors.values():
            if not actor.task.done():
                await actor.stop()
            actor.peer.store.close_backend()

    # ------------------------------------------------------------------
    # Membership-ish lifecycle: crash and durable restart
    # ------------------------------------------------------------------
    #
    # Placement is a fixed hash ring, so peers never join or leave —
    # but an actor can crash and, with durability enabled, come back
    # holding its pre-crash store.  Ownership never moves while a peer
    # is down (requests to it fail instead), so restart needs no
    # reconcile/re-home traffic here: recovery is replay-only.

    def _member(self, name: str) -> _ActorNode:
        """The actor of ring member *name*.  Membership is the ring's
        to decide: the actors exist only once the runtime has started,
        which this does."""
        if name not in self._ring.peers():
            raise ReproError(f"unknown service peer {name!r}")
        self.start()
        return self._actors[name]

    def fail(self, name: str) -> None:
        """Crash one service peer: its actor stops serving, requests to
        it raise :class:`NodeUnreachableError`, its in-memory store is
        gone.  Durable state stays on disk for :meth:`restart`."""
        if self._member(name).task.done():
            raise ReproError(f"service peer {name!r} is already down")
        self._bridge().run(self._fail_node(name))

    async def _fail_node(self, name: str) -> None:
        actor = self._actors[name]
        channel = self._channels.pop(name, None)
        if channel is not None:
            await channel.close()
        await actor.stop()
        actor.peer.store.close_backend()

    def _do_restart(self, name: str) -> None:
        if not self._member(name).task.done():
            raise ReproError(f"service peer {name!r} is already live")
        store = open_peer_store(
            self.durability, self.data_dir, name, recover=True
        )
        self.stats.restarts += 1
        self.stats.restart_replayed += len(store)
        self._bridge().run(self._start_actor(name, store))

    # ------------------------------------------------------------------
    # Extension opcodes (the dissemination plane)
    # ------------------------------------------------------------------

    def install_handler(self, op: Op, handler: Any) -> None:
        """Serve extension opcode *op* with ``async handler(peer, frame)
        -> reply bytes`` on every actor, surviving crash/restart.

        Extension frames run as spawned tasks on the owning actor, so a
        handler may itself await :meth:`call_captured` to other actors
        (or back to its own) without deadlocking the serve loop.
        """
        self._handlers[int(op)] = handler
        for actor in self._actors.values():
            actor.handlers[int(op)] = handler

    def set_push_sink(self, sink: Any) -> None:
        """Route unsolicited (``request_id == 0``) frames to *sink*.

        On the TCP transport the sink hangs off each client channel's
        read loop; on the inbox transport it stands in for the missing
        server-to-client socket direction.
        """
        self._push_sink = sink
        for actor in self._actors.values():
            actor.push_sink = sink
        for channel in self._channels.values():
            channel.push_sink = sink

    def push_to_clients(self, name: str, frame_bytes: bytes) -> "Any":
        """Awaitable: emit one unsolicited frame from peer *name*."""
        actor = self._actors.get(name)
        if actor is None or actor.task.done():
            raise NodeUnreachableError(f"service peer {name!r} is down")
        return actor.push(frame_bytes)

    def __enter__(self) -> "ServiceDht":
        return self.start()

    def _bridge(self) -> _LoopThread:
        self.start()
        return self._loop_thread

    # ------------------------------------------------------------------
    # Oracle access
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> str:
        return self._ring.peer_of(key)

    def peers(self) -> list[str]:
        return self._ring.peers()

    def items(self) -> Iterator[tuple[str, Any]]:
        """Every actor's (key, value) pairs, copied on the loop thread:
        it mutates the stores, so only it may iterate them."""
        if self._loop_thread is None:
            return iter(())
        return iter(self._bridge().run(self._snapshot_items()))

    async def _snapshot_items(self) -> list[tuple[str, Any]]:
        return [
            pair
            for actor in self._actors.values()
            for pair in actor.peer.store.items()
        ]

    def key_count(self) -> int:
        """Stored keys via the non-decoding ``keys()`` walk."""
        if self._loop_thread is None:
            return 0
        return self._bridge().run(self._count_keys())

    async def _count_keys(self) -> int:
        return sum(len(actor.peer.store) for actor in self._actors.values())

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    async def _request(
        self, op: Op, key: str, value: Any = None, *, body: Any = None
    ) -> Any:
        stats = self.network.stats
        actor = self._actors[self._ring.peer_of(key)]
        request_id = next(self._request_ids)
        if body is not None:
            # Extension opcode: *key* routes the frame (peer_of above)
            # and prices it, but the payload is the opcode's own body.
            frame_bytes = encode_frame(op, request_id, body)
            cost_value = body
        else:
            frame_bytes = encode_request(op, request_id, key, value)
            cost_value = value
        stats.record_rpc()
        cost, payload = frame_wire_sizes(op, key, cost_value)
        stats.record_message(op.name.lower(), cost, payload=payload)
        if self._transport_kind == "tcp":
            channel = self._channels.get(actor.peer.name)
            if channel is None:  # crashed via fail(): listener is gone
                raise NodeUnreachableError(
                    f"service peer {actor.peer.name!r} is down"
                )
            reply = await channel.call(frame_bytes, request_id)
        else:
            reply = await actor.call(frame_bytes)
        cost, payload = frame_wire_sizes(reply.op, "", reply.body)
        stats.record_message(op.name.lower() + ":reply", cost, payload=payload)
        if reply.op is Op.REPLY_ERR:
            raise rebuild_error(reply.body)
        return reply.body

    async def call_captured(
        self, op: Op, key: str, value: Any = None, *, body: Any = None
    ) -> Any:
        """Handler half of the extension seam: await one *op* frame to
        the owner of *key* from code already on the loop (an installed
        handler, a batch round).  An unreachable owner comes back as a
        :class:`BatchFailure` in place of the reply body."""
        try:
            return await self._request(op, key, value, body=body)
        except NodeUnreachableError as error:
            return BatchFailure(error)

    async def _timed_request(
        self, op: Op, key: str, value: Any = None, *, body: Any = None
    ) -> Any:
        """One request whose wall span — frame issued to reply decoded
        — lands on ``NetworkStats``, answered or not."""
        clock = self.network.clock
        started = clock.now
        try:
            return await self._request(op, key, value, body=body)
        finally:
            self.network.stats.record_wall_span(clock.now - started)

    def call(
        self, op: Op, key: str, value: Any = None, *, body: Any = None
    ) -> Any:
        """Client half of the extension seam: send one *op* frame to
        the owner of *key* from the calling thread and return the reply
        body.  *body* replaces the ``(key, value)`` payload for
        extension opcodes served by :meth:`install_handler`."""
        return self._bridge().run(
            self._timed_request(op, key, value, body=body)
        )

    async def _gather_round(self, calls: list[tuple]) -> list[Any]:
        clock = self.network.clock
        started = clock.now
        tracer = self.network.tracer
        with (tracer.span("net", "message_round") if tracer else UNTRACED) as span:
            outcomes = await asyncio.gather(
                *(self.call_captured(*call) for call in calls)
            )
            elapsed = clock.now - started
            if span is not None:
                span.attrs["fanout"] = len(calls)
                span.attrs["critical_path"] = elapsed
        # The round's wall span is its critical path: the elements ran
        # concurrently, so the batch costs the slowest element, exactly
        # the accounting SimNetwork.message_round applies to the
        # simulated clock.  The simulated-latency axis stays untouched.
        self.network.stats.record_round(len(calls), 0.0)
        self.network.stats.record_wall_span(elapsed)
        return outcomes

    def _call_many(self, calls: list[tuple]) -> list[Any]:
        return self._bridge().run(self._gather_round(calls))

    # ------------------------------------------------------------------
    # Whole operations on the loop: one bridge crossing each
    # ------------------------------------------------------------------
    #
    # The sync facade crosses the bridge once per request or round.  An
    # operation is a chain of dependent steps, so driving it from the
    # client thread pays that hand-off per step; driving it here pays
    # it once.  ``drive_on_loop`` is ``Dht.drive`` awaited on the loop
    # over ``perform_on_loop`` — same meters and spans (``Dht._meter``),
    # same frames, no thread hop between steps.  Only a ``CALL`` step
    # comes back: a hook makes blocking facade calls of its own, which
    # the loop thread must not, so it runs on the caller's thread
    # between two loop segments; an installed handler awaits its own
    # (a peer's forward) on the loop.

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
        (:meth:`drive_on_loop`): any step but ``CALL``."""
        op, subject = step[0], step[1]
        if op is REWRITE:
            if not await self._rewrite(subject, step[2]):
                raise _absent_key(subject)
            return None
        if not subject:
            return []  # an empty batch is no round
        with self._meter(step):
            if op is GET or op is REMOVE:
                wire = Op.GET if op is GET else Op.REMOVE
                return await self._timed_request(wire, subject)
            if op is GET_MANY:
                return await self._gather_round([(Op.GET, key) for key in subject])
            calls = [(Op.PUT, key, value) for key, value in subject]
            return _raise_batch_failures(await self._gather_round(calls))

    def _do_rewrite(self, key: str, value: Any) -> bool:
        return self._bridge().run(self._rewrite(key, value))

    async def _rewrite(self, key: str, value: Any) -> bool:
        if not await self._timed_request(Op.CONTAINS, key):
            return False
        await self._timed_request(Op.PUT, key, value)
        return True

    # ------------------------------------------------------------------
    # Substrate primitives
    # ------------------------------------------------------------------

    def _do_lookup(self, key: str) -> str:
        return self.call(Op.LOOKUP, key)

    def _do_get(self, key: str) -> Any | None:
        return self.call(Op.GET, key)

    def _do_put(self, key: str, value: Any) -> None:
        self.call(Op.PUT, key, value)

    def _do_remove(self, key: str) -> Any:
        return self.call(Op.REMOVE, key)

    def _do_contains(self, key: str) -> bool:
        return self.call(Op.CONTAINS, key)

    def _do_get_many(self, keys: Sequence[str]) -> list[Any]:
        return self._call_many([(Op.GET, key) for key in keys])

    def _do_put_many(self, items: Sequence[tuple[str, Any]]) -> list[Any]:
        return self._call_many(
            [(Op.PUT, key, value) for key, value in items]
        )
