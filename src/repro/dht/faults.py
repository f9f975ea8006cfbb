"""Deterministic fault injection for any DHT substrate.

The paper delegates robustness to the underlying DHT ("m-LIGHT
inherits Bamboo's resilience") and never quantifies what the *index*
loses when probes fail mid-query.  This module supplies the missing
instrument: a wrapper that injects reproducible faults at the
``_do_*`` primitive boundary, so every substrate — LocalDht oracle or
routed overlay — can be made exactly as unreliable as an experiment
demands.

Two pieces:

* :class:`FaultPlan` — a seeded decision stream.  Each primitive
  operation draws one uniform variate from a private RNG and maps it
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
    The primitive raises :class:`FaultInjectedError` immediately — a
    lost request or a crashed responder.
``timeout``
    The clock advances by ``timeout_delay`` first (the caller waited
    for a reply that never came), then the primitive raises.
``slow``
    The clock advances by ``slow_delay`` and the primitive succeeds —
    a congested link.
``stale``
    A read returns the value a prior write *replaced*, when one is
    known; writes and never-overwritten keys fall through to the live
    value.  Models read-your-replica-behind semantics.

Batch primitives inject per element: faulted slots carry a
:class:`~repro.dht.api.BatchFailure` while the clean subset still runs
through the inner substrate's own batch machinery, so round-parallel
latency modelling is preserved and one injected fault never poisons
the other slots of its round.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from typing import Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.rng import derive_seed, make_rng
from repro.dht.api import BatchFailure, Dht, DhtDecorator
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
    probabilities per primitive operation; their sum must stay below
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
        """The fault to inject for one primitive operation, or None.

        *op* names the primitive (``"get"``, ``"put"``, ...); *key* is
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
    """Wrap *inner* so its primitives fail according to a *plan*.

    Shares the inner substrate's :class:`~repro.dht.api.DhtStats` (so
    index layers keep reading one counter set) and meters every
    injection on the ``faults_*`` counters.  Time-costing faults
    advance *clock* (default: the stack's own, see
    :class:`~repro.dht.api.DhtDecorator`).

    Injection sits at the ``_do_*`` boundary: steps meter as usual,
    then the primitive consults the plan.  ``rewrite_local`` and the
    oracle methods (``peek``/``peer_of``/``peers``/``items``) never
    fault — they model local work, not wire traffic.
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

    def _serves_stale(self, key: str) -> bool:
        """Decide one read of *key*: True when it answers with the
        superseded value (:meth:`_stale_read`); False when it goes on
        to the primitive's own live read — no fault drawn, a slow one,
        or a stale draw on a key written once (no stale version)."""
        return self._inject("get", key) == "stale" and key in self._superseded

    def _stale_read(self, key: str) -> Any:
        self.stats.faults_stale += 1
        return self._superseded[key]

    # ------------------------------------------------------------------
    # Substrate primitives (inject, then delegate)
    # ------------------------------------------------------------------
    #
    # Injection sits *below* the metering, so ``perform`` is the
    # metering facade itself rather than the decorator's forwarder:
    # each step meters once on the shared stats, then reaches the
    # injecting primitives.

    perform = Dht.perform

    def _do_lookup(self, key: str) -> str:
        self._inject("lookup", key)
        return self._inner._do_lookup(key)

    def _do_get(self, key: str) -> Any | None:
        if self._serves_stale(key):
            return self._stale_read(key)
        return self._inner._do_get(key)

    def _do_get_direct(self, peer: str, key: str) -> Any | None:
        if self._serves_stale(key):
            return self._stale_read(key)
        return self._inner._do_get_direct(peer, key)

    def _do_put(self, key: str, value: Any) -> None:
        self._inject("put", key)
        self._inner._do_put(key, value)
        self._record_write(key, value)

    def _do_remove(self, key: str) -> Any:
        self._inject("remove", key)
        value = self._inner._do_remove(key)
        self._superseded.pop(key, None)
        self._last_written.pop(key, None)
        return value

    def _do_contains(self, key: str) -> bool:
        self._inject("contains", key)
        return self._inner._do_contains(key)

    # ------------------------------------------------------------------
    # Batch primitives: per-element injection, clean subset still rides
    # the inner substrate's round machinery
    # ------------------------------------------------------------------

    def _batch_inject(
        self, op: str, keys: Sequence[str]
    ) -> tuple[list[Any | None], list[int]]:
        """Pre-draw each element's fault; failed slots get their
        BatchFailure and stale reads their superseded value
        immediately, the slot indices left are returned for the
        delegated live sub-batch."""
        outcomes: list[Any | None] = [None] * len(keys)
        live: list[int] = []
        for slot, key in enumerate(keys):
            try:
                kind = self._inject(op, key)
            except FaultInjectedError as error:
                outcomes[slot] = BatchFailure(error)
                continue
            if kind == "stale" and op == "get" and key in self._superseded:
                outcomes[slot] = self._stale_read(key)
            else:
                live.append(slot)
        return outcomes, live

    def _do_get_many(self, keys: Sequence[str]) -> list[Any]:
        outcomes, live = self._batch_inject("get", keys)
        if live:
            results = self._inner._do_get_many([keys[slot] for slot in live])
            for slot, result in zip(live, results):
                outcomes[slot] = result
        return outcomes

    def _do_put_many(self, items: Sequence[tuple[str, Any]]) -> list[Any]:
        outcomes, survivors = self._batch_inject(
            "put", [key for key, _ in items]
        )
        if survivors:
            results = self._inner._do_put_many(
                [items[slot] for slot in survivors]
            )
            for slot, result in zip(survivors, results):
                outcomes[slot] = result
                if not isinstance(result, BatchFailure):
                    self._record_write(*items[slot])
        return outcomes

    # ------------------------------------------------------------------
    # Local and oracle operations: never faulted
    # ------------------------------------------------------------------

    def _do_rewrite(self, key: str, value: Any) -> bool:
        # No peek of the inner value: on routed substrates peeking
        # costs overlay hops, which would break the zero-fault
        # bit-equivalence of this wrapper.  Stale versions are tracked
        # from writes observed through the wrapper alone.
        if not self._inner._do_rewrite(key, value):
            return False
        self._record_write(key, value)
        return True
