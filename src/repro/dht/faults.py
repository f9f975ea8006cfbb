"""Deterministic fault injection for any DHT substrate.

The paper delegates robustness to the underlying DHT ("m-LIGHT
inherits Bamboo's resilience") and never quantifies what the *index*
loses when probes fail mid-query.  This module supplies the missing
instrument: a wrapper that injects reproducible faults into each
request a step makes (:meth:`~repro.dht.api.Dht.ask`), so every
substrate — LocalDht oracle or routed overlay — can be made exactly as
unreliable as an experiment demands.

Two pieces:

* :class:`FaultPlan` — a seeded decision stream.  Each request of a
  step draws one uniform variate from a private RNG and maps it
  to a fault kind (or none) by the configured rates, so the same plan
  seed over the same operation sequence reproduces the same faults
  bit-for-bit.  Keys listed in ``dead_keys`` fail deterministically on
  every touch — the tool for "kill exactly this bucket" tests.
* :class:`FaultyDht` — the :class:`~repro.dht.api.Dht` wrapper that
  consults the plan before delegating.  Injections are metered on the
  shared :class:`~repro.dht.api.DhtStats` (``faults_*`` counters) and
  time-costing faults (timeouts, slow replies) charge the simulated
  clock from :mod:`repro.net.events` — never ``time.sleep``.

Fault kinds:

``drop``
    The request raises :class:`FaultInjectedError` immediately — a
    lost request or a crashed responder.
``timeout``
    The clock advances by ``timeout_delay`` first (the caller waited
    for a reply that never came), then the request raises.
``slow``
    The clock advances by ``slow_delay`` and the request succeeds —
    a congested link.
``stale``
    A read returns the value a prior write *replaced*, when one is
    known; writes and never-overwritten keys fall through to the live
    value.  Models read-your-replica-behind semantics.

A batch's round injects per element: faulted slots carry a
:class:`~repro.dht.api.BatchFailure` while the clean subset still runs
as the inner substrate's own round, so round-parallel latency
modelling is preserved and one injected fault never poisons the other
slots of its round.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.rng import derive_seed, make_rng
from repro.dht.api import (
    APPEND, GET, PUT, REMOVE, REWRITE, BatchFailure, Dht, DhtDecorator, _capture,
)
from repro.net.events import EventScheduler

__all__ = [
    "FAULT_KINDS",
    "FaultInjectedError",
    "FaultPlan",
    "FaultyDht",
]

#: Injectable fault kinds, in the order the decision stream maps them.
FAULT_KINDS = ("drop", "timeout", "slow", "stale")

class FaultInjectedError(NodeUnreachableError):
    """An operation failed because the fault plan said so."""


class FaultPlan:
    """Seeded, reproducible stream of per-operation fault decisions.

    *drop_rate*, *timeout_rate*, *slow_rate* and *stale_rate* are
    probabilities per request; their sum must stay below
    1.0.  Every decision consumes exactly one RNG draw whatever its
    outcome, so the stream stays aligned across configurations with
    the same seed.

    *dead_keys* fail deterministically (as drops) on every operation
    that touches them, without consuming a draw — the stream of random
    decisions is identical with or without dead keys.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drop_rate: float = 0.0,
        timeout_rate: float = 0.0,
        slow_rate: float = 0.0,
        stale_rate: float = 0.0,
        timeout_delay: float = 4.0,
        slow_delay: float = 1.0,
        dead_keys: Iterable[str] = (),
    ) -> None:
        rates = {
            "drop": drop_rate,
            "timeout": timeout_rate,
            "slow": slow_rate,
            "stale": stale_rate,
        }
        for kind, rate in rates.items():
            if not 0.0 <= rate < 1.0:
                raise ReproError(
                    f"{kind}_rate must be in [0, 1), got {rate}"
                )
        if sum(rates.values()) >= 1.0:
            raise ReproError(
                "fault rates must sum below 1.0, got "
                f"{sum(rates.values())}"
            )
        for delay, name in ((timeout_delay, "timeout_delay"),
                            (slow_delay, "slow_delay")):
            if delay < 0:
                raise ReproError(f"{name} must be >= 0, got {delay}")
        self.seed = seed
        self.rates = rates
        self.timeout_delay = timeout_delay
        self.slow_delay = slow_delay
        self.dead_keys = frozenset(dead_keys)
        self._rng = make_rng(derive_seed(seed, "fault-plan"))

    def reset(self) -> None:
        """Rewind the decision stream to its initial state.

        Two runs separated by a ``reset()`` see identical decisions —
        the reproducibility contract experiments rely on.
        """
        self._rng = make_rng(derive_seed(self.seed, "fault-plan"))

    def decide(self, op: str, key: str | None) -> str | None:
        """The fault to inject for one request, or None.

        *op* names the peer op (``"get"``, ``"put"``, ...); *key* is
        the key it touches (None for keyless operations).  Dead keys
        short-circuit to ``"drop"`` without consuming a draw.
        """
        if key is not None and key in self.dead_keys:
            return "drop"
        draw = self._rng.random()
        cumulative = 0.0
        for kind in FAULT_KINDS:
            cumulative += self.rates[kind]
            if draw < cumulative:
                return kind
        return None


class FaultyDht(DhtDecorator):
    """Wrap *inner* so its requests fail according to a *plan*.

    Shares the inner substrate's :class:`~repro.dht.api.DhtStats` (so
    index layers keep reading one counter set) and meters every
    injection on the ``faults_*`` counters.  Time-costing faults
    advance *clock* (default: the stack's own, see
    :class:`~repro.dht.api.DhtDecorator`).

    Injection sits at the request boundary: steps meter as usual, then
    each request of the step — one per key, however many replicas it
    reaches — consults the plan.  ``rewrite_local`` and the oracle
    methods (``peek``/``peer_of``/``peers``/``items``) never fault —
    they model local work, not wire traffic.
    """

    def __init__(
        self,
        inner: Dht,
        plan: FaultPlan,
        *,
        clock: EventScheduler | None = None,
    ) -> None:
        super().__init__(inner, clock)
        self._plan = plan
        self.enabled = True
        # Superseded values for stale reads: key -> the value the most
        # recent routed put replaced.
        self._superseded: dict[str, Any] = {}
        self._last_written: dict[str, Any] = {}

    @property
    def plan(self) -> FaultPlan:
        """The active fault plan."""
        return self._plan

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Scope with injection off (ground-truth phases of experiments).

        Suspended operations consume no plan draws, so the decision
        stream resumes exactly where it paused.
        """
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    # ------------------------------------------------------------------
    # Injection core
    # ------------------------------------------------------------------

    def _inject(self, op: str, key: str | None) -> str | None:
        """Decide, meter and time-charge one operation's fault.

        Returns the fault kind still to be *acted on* by the caller
        (``"drop"``/``"timeout"`` were already raised; ``"stale"`` is
        returned for reads to resolve, ``"slow"`` already charged)."""
        if not self.enabled:
            return None
        kind = self._plan.decide(op, key)
        if kind is None:
            return None
        if self.tracer is not None:
            self.tracer.event("fault", kind=kind, op=op, key=key)
        if kind == "drop":
            self.stats.faults_dropped += 1
            raise FaultInjectedError(
                f"injected drop: {op} of {key!r} lost"
            )
        if kind == "timeout":
            self.stats.faults_timed_out += 1
            self._clock.advance(self._plan.timeout_delay)
            raise FaultInjectedError(
                f"injected timeout: {op} of {key!r} gave no reply "
                f"within {self._plan.timeout_delay}"
            )
        if kind == "slow":
            self.stats.faults_slowed += 1
            self._clock.advance(self._plan.slow_delay)
            return None  # delivered, just late
        return kind  # "stale": only reads can act on it

    def _record_write(self, key: str, value: Any) -> None:
        if key in self._last_written:
            self._superseded[key] = self._last_written[key]
        self._last_written[key] = value

    def _stale_read(self, key: str) -> Any:
        self.stats.faults_stale += 1
        return self._superseded[key]

    # ------------------------------------------------------------------
    # The requests of a step: inject, then delegate
    # ------------------------------------------------------------------
    #
    # Injection sits *below* the metering, so ``perform`` is the
    # metering facade itself rather than the decorator's forwarder:
    # each step meters once on the shared stats, then makes its
    # requests here.  Only a read can answer stale, and only with a
    # superseded value: a stale draw on a key written once, like a slow
    # one, goes on to the live read.

    def perform(self, step: tuple) -> Any:
        outcome = Dht.perform(self, step)
        if step[0] is REWRITE:
            # Never faulted.  Stale versions come from the writes seen
            # here, never from a peek: on an overlay a peek routes.
            self._record_write(step[1], step[2])
        return outcome

    def ask(self, op: str, key: str, value: Any = None, peer: str | None = None) -> Any:
        if op is REWRITE or op is APPEND:
            return self._inner.ask(op, key, value, peer)
        if self._inject(op, key) == "stale" and op is GET and key in self._superseded:
            return self._stale_read(key)
        reply = self._inner.ask(op, key, value, peer)
        if op is PUT:
            self._record_write(key, value)
        elif op is REMOVE:
            self._superseded.pop(key, None)
            self._last_written.pop(key, None)
        return reply

    def run_round(self, requests: list[tuple]) -> list[Any]:
        """Pre-draw each request's fault: failed slots get their
        BatchFailure and stale reads their superseded value at once,
        and the requests left run as the inner substrate's round."""
        outcomes: list[Any] = [None] * len(requests)
        live: list[int] = []
        for slot, (op, key, *_) in enumerate(requests):
            kind = _capture(self._inject, op, key)
            if type(kind) is BatchFailure:
                outcomes[slot] = kind
            elif kind == "stale" and op is GET and key in self._superseded:
                outcomes[slot] = self._stale_read(key)
            else:
                live.append(slot)
        if live:
            replies = self._inner.run_round([requests[slot] for slot in live])
            for slot, reply in zip(live, replies):
                outcomes[slot] = reply
                op, key, value, _ = requests[slot]
                if op is PUT and not isinstance(reply, BatchFailure):
                    self._record_write(key, value)
        return outcomes
