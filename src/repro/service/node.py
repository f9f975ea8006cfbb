"""The asyncio service runtime: live peers speaking wire frames.

Where :class:`~repro.net.simnet.SimNetwork` runs all peers in one
thread of control under a virtual clock, this runtime serves every
peer on one asyncio event loop under a real clock.  A request frame is
served where it lands: on the task that sends it
(``transport="asyncio"``), or off a real loopback socket by the peer's
TCP listener (``transport="tcp"``).  Either way one coroutine,
``serve_frame``, dispatches it.  A peer is no task of its own; the
loop interleaves requests at their awaits.

The whole thing hides behind the standard :class:`~repro.dht.api.Dht`
facade: the index layers, the retry/fault wrappers and the tracer
attach unchanged.  The facade's synchronous
``_do_*`` primitives bridge into a dedicated event-loop thread, so any
number of caller threads (the load generator's workers, say) issue
requests concurrently.

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


class _ServicePeer:
    """One service peer: its storage and, on the TCP transport, its
    listener and the client connection to it.

    Constructed inside the runtime's event loop.  A peer is no task of
    its own: the in-process transport serves a request frame on the
    task that sends it, and the TCP listener serves the same frames
    off the socket, one connection handler per client.  The extension
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

    async def call(self, frame_bytes: bytes, request_id: int) -> Frame:
        """Send one request frame to this peer; returns its reply."""
        if not self.live:
            raise NodeUnreachableError(
                f"service peer {self.peer.name!r} is down"
            )
        if self.channel is not None:
            return await self.channel.call(frame_bytes, request_id)
        return decode_frame(await self.serve_frame(decode_frame(frame_bytes)))

    async def serve_frame(self, frame: Frame) -> bytes:
        """Serve one request frame: the installed handler of its opcode,
        else :func:`serve_request`.  Returns the reply frame; a failure
        is a ``REPLY_ERR`` frame, never an exception."""
        handler = self.runtime._handlers.get(frame.op)
        if handler is None:
            return serve_request(self.peer, frame)
        try:
            return await handler(self.peer, frame)
        except Exception as exc:
            return encode_error(frame.request_id, exc)

    async def _handle_connection(self, reader, writer) -> None:
        decoder = FrameDecoder()
        # An extension handler may await other peers, so its reply can
        # overtake the frames behind it: each extension frame is served
        # as a task of its own, and socket writes interleave behind one
        # lock per connection.
        lock = asyncio.Lock()

        async def write(data: bytes) -> None:
            async with lock:
                writer.write(data)
                await writer.drain()

        async def answer(frame: Frame) -> None:
            reply = await self.serve_frame(frame)
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
                    if frame.op not in self.runtime._handlers:
                        await answer(frame)
                        continue
                    task = asyncio.create_task(answer(frame))
                    self._ext_tasks.add(task)
                    task.add_done_callback(self._ext_tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
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
        client connection, let spawned extension frames finish, close
        the listener and the store's durable backend."""
        self.live = False
        if self.channel is not None:
            await self.channel.close()
        if self._ext_tasks:
            await asyncio.gather(
                *list(self._ext_tasks), return_exceptions=True
            )
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
        self.peer.store.close_backend()


class _TcpChannel:
    """Client side of one node's TCP listener.

    Writes request frames down one connection and demultiplexes replies
    by request id, so concurrent requests to the same peer share the
    socket instead of a connection storm.
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

    ``transport="asyncio"`` serves each frame on the task that sends
    it; ``transport="tcp"`` sends the same frames through real loopback
    sockets (one listener per peer, one multiplexed client connection
    each).  Either way the runtime starts lazily on first use; call
    :meth:`close` (or use the instance as a context manager) to tear
    the peers, sockets and loop thread down deterministically.
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
        self._loop_thread: _LoopThread | None = None
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
        """Spin up the loop thread and every peer (idempotent)."""
        if self._closed:
            raise ReproError("this ServiceDht has been closed")
        if self._loop_thread is None:
            self._loop_thread = _LoopThread()
            self._loop_thread.run(self._start_nodes())
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
        """Stop peers, close sockets, and join the loop thread."""
        if self._closed:
            return
        self._closed = True
        if self._loop_thread is not None:
            self._loop_thread.run(self._stop_nodes())
            self._loop_thread.stop()
            self._loop_thread = None

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

    def _do_restart(self, name: str) -> None:
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

        A handler runs on the task that delivered its frame (a spawned
        task per frame on the TCP transport), never in a serve loop, so
        it may itself await :meth:`call_captured` to other peers or to
        its own.
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
        """Every peer's (key, value) pairs, copied on the loop thread:
        it mutates the stores, so only it may iterate them."""
        if self._loop_thread is None:
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
        if self._loop_thread is None:
            return 0
        return self._bridge().run(self._count_keys())

    async def _count_keys(self) -> int:
        return sum(len(node.peer.store) for node in self._peers.values())

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    async def _request(
        self, op: Op, key: str, value: Any = None, *, body: Any = None
    ) -> Any:
        stats = self.network.stats
        peer = self._peers[self._ring.peer_of(key)]
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
        reply = await peer.call(frame_bytes, request_id)
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
