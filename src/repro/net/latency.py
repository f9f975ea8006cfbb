"""Per-link latency models for the simulated network.

The experiments of the paper run on a LAN, so the default model is a
constant small delay; the uniform model adds seeded jitter for churn
stress tests.  Latency only matters to components that run under the
discrete-event clock (stabilization, churn); the synchronous metering
path of the index experiments is latency-agnostic by design, because
the paper measures latency in *rounds of DHT-lookups*, not seconds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.common.rng import make_rng


class LatencyModel(ABC):
    """Strategy returning the one-way delay between two addresses."""

    @abstractmethod
    def delay(self, src: str, dst: str) -> float:
        """One-way message delay in virtual time units."""

    def round_trip(self, src: str, dst: str) -> float:
        """Request plus reply delay of one RPC, request leg first.  A
        stateful model (queueing) overrides it to price the whole round
        trip in one call, serializing requests per destination."""
        return self.delay(src, dst) + self.delay(dst, src)


class ConstantLatency(LatencyModel):
    """Every link has the same fixed delay (LAN-like)."""

    def __init__(self, delay: float = 1.0) -> None:
        self._delay = delay

    def delay(self, src: str, dst: str) -> float:
        return self._delay


class QueueingLatency(LatencyModel):
    """Per-destination single-server FIFO queueing (M/D/1-flavoured).

    The constant and uniform models price a message by the *link*; this
    one prices it by the *server*: each destination peer processes one
    request at a time taking ``service`` time units, so requests
    arriving faster than a peer can drain them queue up and the
    round-trip time of an operation grows with that peer's backlog.
    This is the model under which hotspots *hurt* — a peer absorbing
    most of the read traffic (or a routing gateway absorbing every
    routing RPC) becomes a queue, and tail latency explodes — which is
    exactly what the adaptive plane's replication and shortcuts
    relieve, so E13 measures latency under it.

    The model is open-loop and deterministic.  The caller marks each
    top-level operation's arrival with :meth:`begin_op` (operations
    arrive on an external schedule, e.g. a fixed request rate,
    independent of when earlier operations finished); every
    :meth:`round_trip` within the operation then advances the
    operation's own timeline: wait for the destination server to free
    up, be served, come back.  :meth:`op_latency` reads the elapsed
    time of the operation so far, and :attr:`served` exposes how many
    requests each destination processed — the query-load measure.

    Deliberately not wired to the event scheduler: the queue state is
    the only clock this model needs, and keeping it self-contained
    makes a load-measurement phase trivially resettable
    (:meth:`reset` after bulk loading, so measurements start from idle
    servers).
    """

    def __init__(self, base: float = 0.1, service: float = 1.0) -> None:
        """*base* is the one-way propagation delay of any link;
        *service* the per-request processing time at a destination."""
        if base < 0:
            raise ValueError(f"base delay must be >= 0, got {base}")
        if service <= 0:
            raise ValueError(f"service time must be > 0, got {service}")
        self._base = base
        self._service = service
        self._busy: dict[str, float] = {}
        self.served: dict[str, int] = {}
        self._now = 0.0
        self._op_started = 0.0

    def begin_op(self, arrival: float) -> None:
        """Start one top-level operation arriving at time *arrival*."""
        self._now = arrival
        self._op_started = arrival

    def op_latency(self) -> float:
        """Elapsed time of the current operation so far."""
        return self._now - self._op_started

    def reset(self) -> None:
        """Forget all queue state (between load and measure phases)."""
        self._busy.clear()
        self.served.clear()
        self._now = 0.0
        self._op_started = 0.0

    def round_trip(self, src: str, dst: str) -> float:
        """Serve one request at *dst* on the operation's timeline."""
        arrival = self._now + self._base
        begin = max(arrival, self._busy.get(dst, 0.0))
        done = begin + self._service
        self._busy[dst] = done
        self.served[dst] = self.served.get(dst, 0) + 1
        previous = self._now
        self._now = done + self._base
        return self._now - previous

    def delay(self, src: str, dst: str) -> float:
        # One-way fallback for callers outside an operation timeline
        # (stabilization traffic); queue-free propagation only.
        return self._base


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from [low, high], deterministic per seed.

    The draw is keyed on (src, dst) order of calls, i.e. it is a stream,
    not a static per-link matrix; good enough for jittering periodic
    protocols apart.
    """

    def __init__(self, low: float, high: float, seed: int = 0) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"invalid latency range [{low}, {high}]")
        self._low = low
        self._high = high
        self._rng = make_rng(seed)

    def delay(self, src: str, dst: str) -> float:
        return self._rng.uniform(self._low, self._high)
