"""Network-level accounting.

These counters meter what crosses the simulated wire.  They are
deliberately separate from the index-level counters on
:class:`~repro.dht.api.DhtStats`: the paper reports index-level costs
(number of DHT-lookups, records moved, rounds), which are substrate
independent, while these network counters let the DHT layer itself be
validated (e.g. Chord's O(log N) hops).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields


@dataclass(slots=True)
class NetworkStats:
    """Mutable counters for one simulated network."""

    messages: int = 0
    bytes_sent: int = 0
    payload_bytes: int = 0
    dropped: int = 0
    rpc_calls: int = 0
    rounds: int = 0
    round_messages: int = 0
    max_round_fanout: int = 0
    critical_path_latency: float = 0.0
    wall_seconds: float = 0.0
    per_type: dict[str, int] = field(default_factory=dict)
    bytes_per_type: dict[str, int] = field(default_factory=dict)

    def record_message(
        self, msg_type: str, size_bytes: int, payload: int = 0
    ) -> None:
        """Account one delivered message of *msg_type*.

        *size_bytes* is the full modelled message (framing included);
        *payload* is the data-plane portion — encoded record bytes, per
        the shared codec — so experiments can separate goodput from
        protocol overhead.  ``bytes_per_type`` keeps the same split per
        message type, which is what lets a simulated overlay's
        data-plane traffic be compared against a wire runtime that
        performs no overlay routing.
        """
        self.messages += 1
        self.bytes_sent += size_bytes
        self.payload_bytes += payload
        self.per_type[msg_type] = self.per_type.get(msg_type, 0) + 1
        self.bytes_per_type[msg_type] = (
            self.bytes_per_type.get(msg_type, 0) + size_bytes
        )

    def record_exchange(
        self, msg_types: tuple[str, str], size_bytes: int, payload: int,
        reply_bytes: int | None = None, reply_payload: int = 0,
    ) -> None:
        """Account one request/response exchange in one call: its RPC,
        the request message of ``msg_types[0]`` and — unless
        *reply_bytes* is ``None``: no reply came back — the reply of
        ``msg_types[1]``."""
        self.rpc_calls += 1
        self.record_message(msg_types[0], size_bytes, payload)
        if reply_bytes is not None:
            self.record_message(msg_types[1], reply_bytes, reply_payload)

    def record_drop(self) -> None:
        """Account one injected message drop."""
        self.dropped += 1

    def record_rpc(self) -> None:
        """Account one request/response exchange."""
        self.rpc_calls += 1

    def record_round(self, fanout: int, latency: float) -> None:
        """Account one parallel message round.

        *fanout* — how many independent RPC chains the round carried;
        *latency* — the slowest chain's total round-trip latency, the
        round's critical path (what the clock advanced by).
        """
        self.rounds += 1
        self.round_messages += fanout
        self.max_round_fanout = max(self.max_round_fanout, fanout)
        self.critical_path_latency += latency

    def record_wall_span(self, seconds: float) -> None:
        """Account real elapsed time spent serving requests.

        The service runtime (:mod:`repro.service`) drives this instead
        of a latency model: each request/round contributes the
        wall-clock span between issuing the frame and decoding its
        reply.  ``critical_path_latency`` stays the *simulated* clock's
        measure; keeping the two in separate fields is what lets
        :meth:`latency_clock` reconcile them instead of silently mixing
        units.
        """
        self.wall_seconds += seconds

    def latency_clock(self) -> tuple[str, float]:
        """The clock this network's latency actually ran on.

        Returns ``("wall", seconds)`` when wall-clock spans were
        recorded (the service runtime), else ``("simulated", time)``
        from the round critical paths (the simulated runtime).  One
        reporting surface for experiments that compare runtimes: the
        label says which units the number carries, so a table can never
        present simulated rounds as real seconds or vice versa.
        """
        if self.wall_seconds > 0.0:
            return ("wall", self.wall_seconds)
        return ("simulated", self.critical_path_latency)

    def snapshot(self) -> dict[str, float]:
        """Return an immutable copy of the headline counters.

        Derived from the dataclass fields (``per_type`` excepted — the
        breakdown is reachable directly), so a counter added to this
        class is snapshotted, and reset, by construction.
        """
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.default is not MISSING
        }

    def reset(self) -> None:
        """Zero every counter (between experiment phases).

        Covers exactly the :meth:`snapshot` keyset plus ``per_type``,
        by construction.
        """
        for spec in fields(self):
            if spec.default is not MISSING:
                setattr(self, spec.name, spec.default)
            else:
                getattr(self, spec.name).clear()
