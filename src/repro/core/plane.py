"""Execution planes: how query engines turn probe sets into DHT traffic.

The m-LIGHT algorithms are described round-wise: each step produces a
set of *independent* probes (Section 6's parallel subqueries, Fig. 7's
lookahead frontier, one step of each in-flight fallback chain).  A
plane runs a round cursor (:class:`~repro.core.rangequery.RangeCursor`)
and decides how each round's probes hit the substrate:

* :class:`SequentialPlane` issues them one ``get`` at a time — the
  reference semantics every equivalence test compares against, and the
  right plane for substrates or experiments that must observe each
  probe individually.
* :class:`BatchedPlane` hands the cursor to the substrate's own driver
  (:meth:`~repro.dht.api.Dht.drive`), which issues each round as one
  :meth:`~repro.dht.api.Dht.get_many_outcomes`: batch-capable
  substrates execute the round concurrently, time-modelling substrates
  charge the round its critical path instead of the sum of its probes,
  and the service runtime runs all of a query's rounds without leaving
  its event loop.

Both planes return one outcome per key in issuance order, so engines
process identical outcomes in identical order: answers and per-element
meters are the same on either plane, and only round structure
(``batch_rounds``, simulated network rounds and latency) differs.

Failure semantics are per-slot on both planes: a probe whose peer was
unreachable (after whatever retry wrapper the substrate stack carries
gave up) yields a :class:`~repro.dht.api.BatchFailure` in its slot
instead of aborting the round, so one dead probe never poisons the
round's other results.  The engines translate failed slots into
``complete=False`` partial results — see "Degraded mode" in
``docs/architecture.md``.

When a :class:`~repro.obs.trace.Tracer` is supplied, each round runs
inside a ``round`` span (``sequential_round``/``batched_round``) so
the trace tree mirrors the algorithm's round structure; with
``tracer=None`` (the default) the plane takes the exact pre-tracing
code path.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.dht.api import Dht, _capture

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

__all__ = ["BatchedPlane", "SequentialPlane", "make_plane"]


class SequentialPlane:
    """One metered ``get`` per probe, back-to-back."""

    batched = False

    def __init__(self, dht: Dht, tracer: "Tracer | None" = None) -> None:
        self._dht = dht
        self.tracer = tracer

    def get_round(self, keys: Sequence[str]) -> list[Any]:
        tracer = self.tracer
        if tracer is None:
            return [_capture(self._dht.get, key) for key in keys]
        with tracer.span("round", "sequential_round", probes=len(keys)):
            return [_capture(self._dht.get, key) for key in keys]

    def run(self, cursor) -> None:
        """Drive *cursor* to completion, one ``get`` per round key."""
        while not cursor.done:
            cursor.advance_round(self.get_round(cursor.round_keys()))


class BatchedPlane:
    """One ``get_many`` per round of probes, issued by the substrate."""

    batched = True

    def __init__(self, dht: Dht, tracer: "Tracer | None" = None) -> None:
        self._dht = dht
        self.tracer = tracer

    def get_round(self, keys: Sequence[str]) -> list[Any]:
        """One round on its own, for a caller that has no cursor (the
        perf harness spans this name)."""
        tracer = self.tracer
        if tracer is None:
            return self._dht.get_many_outcomes(keys)
        with tracer.span("round", "batched_round", probes=len(keys)):
            return self._dht.get_many_outcomes(keys)

    def run(self, cursor) -> None:
        """Drive *cursor* to completion where the substrate's IO is."""
        self._dht.drive(cursor)


def make_plane(
    dht: Dht, batched: bool, tracer: "Tracer | None" = None
) -> SequentialPlane | BatchedPlane:
    """The plane matching an engine's ``batched`` flag."""
    return (
        BatchedPlane(dht, tracer) if batched else SequentialPlane(dht, tracer)
    )
