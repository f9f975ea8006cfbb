"""Synchronous simulated network with fault injection.

Peers register a handler object; other peers reach them through
:meth:`SimNetwork.rpc`, which models one request message and one
response message.  The call itself executes synchronously (the DHT
protocols here are sequential request/response chains), while the
discrete-event clock in :mod:`repro.net.events` advances by the modelled
round-trip latency, so time-based protocols (stabilization, churn)
observe realistic orderings.  The network prices every reply with the
one byte model, :func:`~repro.net.message.message_sizes`; a storage
request carries the size its caller priced with the same function
(routing requests are unsized).

Fault injection supports: unregistered/crashed destinations, seeded
random message drops, and explicit bidirectional partitions.  All of it
is deterministic under a fixed seed.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

from repro.common.errors import NodeUnreachableError
from repro.common.rng import make_rng
from repro.net.events import EventScheduler
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message, message_sizes
from repro.net.stats import NetworkStats

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


class RpcError(NodeUnreachableError):
    """An RPC failed to reach its destination (crash, drop, partition)."""


class MessageRound:
    """Latency bookkeeping for one parallel round of RPC chains.

    A *chain* is one batch element's sequence of dependent RPCs (e.g.
    every routing hop of one ``get``); its latency is the sum of its
    round trips.  Chains of one round are independent, so the round's
    latency — what the clock advances by at round end — is the *max*
    over chains, not the sum.  RPCs issued inside the round but outside
    any chain count as single-RPC chains.
    """

    __slots__ = ("_chains", "_open")

    def __init__(self) -> None:
        self._chains: list[float] = []
        self._open = False

    @contextmanager
    def chain(self) -> Iterator[None]:
        """Scope one batch element's dependent RPC sequence."""
        self._chains.append(0.0)
        self._open = True
        try:
            yield
        finally:
            self._open = False

    def add_latency(self, round_trip: float) -> None:
        """Charge one RPC's round trip to the current chain."""
        if self._open:
            self._chains[-1] += round_trip
        else:
            self._chains.append(round_trip)

    @property
    def fanout(self) -> int:
        """Number of independent chains the round carried so far."""
        return len(self._chains)

    @property
    def critical_path(self) -> float:
        """The slowest chain's latency (0.0 for an empty round)."""
        return max(self._chains, default=0.0)


class SimNetwork:
    """Registry plus transport for simulated peers."""

    def __init__(
        self,
        latency: LatencyModel | None = None,
        drop_probability: float = 0.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1), got {drop_probability}"
            )
        self._handlers: dict[str, Any] = {}
        self._latency = latency if latency is not None else ConstantLatency()
        self._drop_probability = drop_probability
        self._rng = make_rng(seed)
        self._partitions: set[frozenset[str]] = set()
        self.stats = NetworkStats()
        self.clock = EventScheduler()
        self._round: MessageRound | None = None
        # Set by Tracer.attach when the owning index traces; None keeps
        # the transport on the exact pre-tracing code path.
        self.tracer: "Tracer | None" = None

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def register(self, address: str, handler: Any) -> None:
        """Attach *handler* (an object with ``handle_rpc``) at *address*."""
        if address in self._handlers:
            raise NodeUnreachableError(f"address {address!r} already in use")
        self._handlers[address] = handler

    def unregister(self, address: str) -> None:
        """Detach the peer at *address* (models a crash or departure)."""
        self._handlers.pop(address, None)

    def is_registered(self, address: str) -> bool:
        """True while a live handler is attached at *address*."""
        return address in self._handlers

    def addresses(self) -> list[str]:
        """Snapshot of all live addresses."""
        return sorted(self._handlers)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def partition(self, group_a: set[str], group_b: set[str]) -> None:
        """Make every (a, b) pair across the two groups unreachable."""
        for a in group_a:
            for b in group_b:
                self._partitions.add(frozenset((a, b)))

    def heal_partitions(self) -> None:
        """Remove every injected partition."""
        self._partitions.clear()

    def _partitioned(self, src: str, dst: str) -> bool:
        return frozenset((src, dst)) in self._partitions

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def rpc(
        self,
        src: str,
        dst: str,
        method: str,
        *args: Any,
        size_bytes: int = 0,
        payload_bytes: int = 0,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``handle_rpc(method, *args, **kwargs)`` on peer *dst*.

        Accounts two messages — the request at the *size_bytes* /
        *payload_bytes* the caller priced, the reply at
        :func:`~repro.net.message.message_sizes` of the result — and
        advances the virtual clock by the latency model's round trip.
        Raises :class:`RpcError` when the destination is dead,
        partitioned away, or the message is dropped by fault injection.
        """
        self.stats.record_rpc()
        if dst not in self._handlers:
            self.stats.record_drop()
            if self.tracer is not None:
                self.tracer.event("rpc_drop", dst=dst, reason="dead")
            raise RpcError(f"peer {dst!r} is not reachable (dead or unknown)")
        if self._partitioned(src, dst):
            self.stats.record_drop()
            if self.tracer is not None:
                self.tracer.event("rpc_drop", dst=dst, reason="partition")
            raise RpcError(f"peers {src!r} and {dst!r} are partitioned")
        if self._drop_probability and self._rng.random() < self._drop_probability:
            self.stats.record_drop()
            if self.tracer is not None:
                self.tracer.event("rpc_drop", dst=dst, reason="drop")
            raise RpcError(f"message {src!r} -> {dst!r} dropped")

        request = Message(src, dst, method, (args, kwargs), size_bytes)
        self.stats.record_message(method, size_bytes, payload=payload_bytes)
        handler = self._handlers[dst]
        result = handler.handle_rpc(request)
        reply_size, reply_payload = message_sizes("", result)
        self.stats.record_message(
            method + ":reply", reply_size, payload=reply_payload
        )
        round_trip = self._latency.round_trip(src, dst)
        if self._round is not None:
            self._round.add_latency(round_trip)
        else:
            self.clock.advance(round_trip)
        return result

    @contextmanager
    def message_round(self) -> Iterator[MessageRound]:
        """Scope one parallel message round.

        Every RPC issued inside the ``with`` block charges its latency
        to the round instead of the clock; group dependent RPCs with
        :meth:`MessageRound.chain`.  On exit the clock advances once by
        the round's critical path (the slowest chain) — the latency
        model of multicast-style parallel dissemination, where a
        recursion level costs one round regardless of fan-out.  Nested
        rounds flatten into the enclosing round's current chain: a
        handler that batches internally is still part of one dependent
        sequence as seen from the outer round.
        """
        if self._round is not None:
            yield self._round
            return
        round_ = MessageRound()
        self._round = round_
        tracer = self.tracer
        if tracer is None:
            try:
                yield round_
            finally:
                self._round = None
                self.clock.advance(round_.critical_path)
                self.stats.record_round(round_.fanout, round_.critical_path)
            return
        with tracer.span("net", "message_round") as span:
            try:
                yield round_
            finally:
                self._round = None
                self.clock.advance(round_.critical_path)
                self.stats.record_round(round_.fanout, round_.critical_path)
                span.attrs["fanout"] = round_.fanout
                span.attrs["critical_path"] = round_.critical_path
