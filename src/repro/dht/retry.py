"""Retry decoration for lossy substrates.

The routed overlays raise :class:`~repro.net.simnet.RpcError` when a
message is dropped or a peer is mid-churn.  Index layers stay oblivious
(over-DHT layering), so resilience belongs here: ``RetryingDht`` wraps
any :class:`~repro.dht.api.Dht` and retries failed primitives a bounded
number of times.  Retried attempts are *metered* — a retry really does
cost another DHT-lookup on the wire, and the meters are the experiment
ground truth — and the retry counter is exposed for observability.

Each operation's retry budget is two-sided:

* **attempts** — at most this many tries of the primitive;
* **deadline** — an optional cap on simulated time the operation may
  spend (first try included); once backoff would cross it, the last
  error propagates instead.

Between attempts the wrapper waits ``backoff_base * factor**attempt``
plus a seeded uniform jitter — on the *simulated* clock from
:mod:`repro.net.events`, never ``time.sleep``, so tests and
experiments replay backoff schedules deterministically.  The default
``backoff_base=0.0`` keeps the pre-backoff behavior: immediate
retries, no clock interaction.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.rng import derive_seed, make_rng
from repro.dht.api import (
    BatchFailure,
    Dht,
    DhtDecorator,
    _check_records_moved,
    _raise_batch_failures,
)
from repro.net.events import EventScheduler


class RetryingDht(DhtDecorator):
    """Wrap *inner* so transient RPC failures are retried.

    Only :class:`NodeUnreachableError` (and its subclasses ``RpcError``
    and ``FaultInjectedError``) triggers a retry; data errors such as
    ``DhtKeyError`` propagate immediately.  After *attempts*
    consecutive failures — or once the *deadline* budget of simulated
    time is spent — the last error propagates.

    *backoff_base* > 0 enables exponential backoff: the wait before
    retry ``n`` (0-based) is ``backoff_base * backoff_factor**n``
    plus ``uniform(0, jitter)`` drawn from a private RNG seeded with
    *seed*.  Waits advance *clock* (default: the stack's own, see
    :class:`~repro.dht.api.DhtDecorator`) and are tallied in
    ``stats.backoff_waits``.
    """

    def __init__(
        self,
        inner: Dht,
        attempts: int = 3,
        *,
        backoff_base: float = 0.0,
        backoff_factor: float = 2.0,
        jitter: float = 0.0,
        deadline: float | None = None,
        clock: EventScheduler | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(inner, clock)
        if attempts < 1:
            raise ReproError(f"attempts must be >= 1, got {attempts}")
        if backoff_base < 0:
            raise ReproError(
                f"backoff_base must be >= 0, got {backoff_base}"
            )
        if backoff_factor < 1:
            raise ReproError(
                f"backoff_factor must be >= 1, got {backoff_factor}"
            )
        if jitter < 0:
            raise ReproError(f"jitter must be >= 0, got {jitter}")
        if deadline is not None and deadline <= 0:
            raise ReproError(
                f"deadline must be positive, got {deadline}"
            )
        self._attempts = attempts
        self._backoff_base = backoff_base
        self._backoff_factor = backoff_factor
        self._jitter = jitter
        self._deadline = deadline
        self._rng = make_rng(derive_seed(seed, "retry-backoff"))

    @property
    def backoff_time(self) -> float:
        """Total simulated backoff wait, mirrored from the shared stats.

        Lives on :class:`~repro.dht.api.DhtStats` (``backoff_time``) so
        an experiment-phase ``stats.reset()`` clears it along with
        every other counter instead of leaking across phases.
        """
        return self.stats.backoff_time

    @property
    def retries(self) -> int:
        """Total retried attempts, mirrored from the shared stats."""
        return self.stats.retries

    def _backoff(self, attempt: int, started: float) -> bool:
        """Wait before retry number *attempt*; False when the budget
        (deadline) forbids another try."""
        delay = 0.0
        if self._backoff_base > 0:
            delay = self._backoff_base * self._backoff_factor**attempt
        if self._jitter > 0:
            delay += self._rng.uniform(0.0, self._jitter)
        if self._deadline is not None:
            spent = self._clock.now - started
            if spent + delay >= self._deadline:
                return False
        if delay > 0:
            self._clock.advance(delay)
            self.stats.backoff_time += delay
            self.stats.backoff_waits += 1
            if self.tracer is not None:
                self.tracer.event("backoff", delay=delay, attempt=attempt)
        return True

    def _with_retries(self, operation, *args, **kwargs):
        started = self._clock.now
        last_error: Exception | None = None
        for attempt in range(self._attempts):
            try:
                return operation(*args, **kwargs)
            except NodeUnreachableError as error:
                last_error = error
                if attempt + 1 >= self._attempts:
                    break
                if not self._backoff(attempt, started):
                    break
                self.stats.retries += 1
                if self.tracer is not None:
                    self.tracer.event(
                        "retry", attempt=attempt + 1, error=str(error)
                    )
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    # Metered operations delegate (the inner facade meters each attempt)
    # ------------------------------------------------------------------

    def lookup(self, key: str) -> str:
        return self._with_retries(self._inner.lookup, key)

    def get(self, key: str) -> Any | None:
        return self._with_retries(self._inner.get, key)

    def get_direct(self, peer: str, key: str) -> Any | None:
        # Retry transient drops; a genuinely dead peer still exhausts
        # the budget and propagates, so shortcut eviction fires.
        return self._with_retries(self._inner.get_direct, peer, key)

    def put(self, key: str, value: Any, *, records_moved: int = 0) -> None:
        return self._with_retries(
            self._inner.put, key, value, records_moved=records_moved
        )

    def remove(self, key: str, *, records_moved: int = 0) -> Any:
        return self._with_retries(
            self._inner.remove, key, records_moved=records_moved
        )

    # ------------------------------------------------------------------
    # Batched operations: retry only the failed subset
    # ------------------------------------------------------------------
    #
    # The inner ``_do_*_many`` primitives report per-element outcomes
    # (partial-failure semantics), so a retry round re-issues exactly
    # the elements that failed — as its own batch round, because on the
    # wire it is one.  Every attempt is metered per element, retried
    # elements included: a retry really does cost another DHT-lookup.

    def _batch_with_retries(self, op, primitive, elements, meter):
        """Per-element outcomes after retrying only the failed subset.

        Slots still failing when the attempt or deadline budget runs
        out keep their :class:`BatchFailure`; the caller decides
        whether to raise (``*_many``) or degrade
        (``get_many_outcomes``).

        *op* names the primitive for tracing: this wrapper bypasses the
        inner facade's public batch methods (to reach the per-element
        ``_do_*_many`` outcomes), so it opens its own ``dht`` span per
        attempt — each retried sub-batch is its own wire round and shows
        up as its own span, matching the per-attempt metering."""
        started = self._clock.now
        outcomes: list[Any] = [None] * len(elements)
        pending = list(range(len(elements)))
        for attempt in range(self._attempts):
            if attempt:
                if not self._backoff(attempt - 1, started):
                    break
                self.stats.retries += len(pending)
                self.stats.batch_retries += len(pending)
                if self.tracer is not None:
                    self.tracer.event(
                        "retry", attempt=attempt, pending=len(pending)
                    )
            meter(pending)
            batch = [elements[slot] for slot in pending]
            if self.tracer is None:
                results = primitive(batch)
            else:
                with self.tracer.span(
                    "dht", op, count=len(batch), attempt=attempt
                ):
                    results = primitive(batch)
            failed = []
            for slot, outcome in zip(pending, results):
                outcomes[slot] = outcome
                if isinstance(outcome, BatchFailure):
                    failed.append(slot)
            pending = failed
            if not pending:
                break
        return outcomes

    def get_many_outcomes(self, keys: Sequence[str]) -> list[Any]:
        keys = list(keys)
        if not keys:
            return []
        return self._batch_with_retries(
            "get_many",
            self._inner._do_get_many,
            keys,
            lambda pending: self.stats.meter_batch(
                len(pending), gets=len(pending)
            ),
        )

    def put_many(
        self,
        items: Sequence[tuple[str, Any]],
        *,
        records_moved: Sequence[int] | None = None,
    ) -> None:
        items = list(items)
        if not items:
            return
        moved = _check_records_moved(items, records_moved)
        _raise_batch_failures(self._batch_with_retries(
            "put_many",
            self._inner._do_put_many,
            items,
            lambda pending: self.stats.meter_batch(
                len(pending),
                puts=len(pending),
                records_moved=sum(moved[slot] for slot in pending),
            ),
        ))
