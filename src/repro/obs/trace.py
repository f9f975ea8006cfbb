"""Hierarchical query tracing.

The paper's evaluation attributes every cost — DHT-lookups, record
movement, network rounds — to individual operations.  The counters in
:class:`~repro.dht.api.DhtStats` aggregate those costs; this module
records their *structure*: a :class:`Tracer` produces a tree of
:class:`Span` values mirroring how one query actually executed,

::

    query (range_query / knn / lookup / insert)
    └── round                (one per engine wave)
        └── DHT primitive    (get / get_many / put_many / ...)
            └── network message round   (routed overlays only)

with *events* — point-in-time annotations — attached along the way:
retry attempts and backoff waits from
:class:`~repro.dht.retry.RetryingDht`, injected faults from
:class:`~repro.dht.faults.FaultyDht`, cache hint outcomes from
:class:`~repro.core.lookup.PointLookupCursor`, and per-RPC messages
from :class:`~repro.net.simnet.SimNetwork`.

Design constraints, in order:

1. **Zero cost when disabled.**  Nothing in the hot path ever holds a
   no-op tracer object: a disabled component holds ``None`` and guards
   with one attribute load and one ``is None`` test.  The bench gate in
   ``benchmarks/test_trace_overhead.py`` verifies the disabled path
   stays within noise of the raw engine path.
2. **Deterministic structure.**  Span ids are sequential integers; the
   simulated clock (when one exists) is recorded next to wall time, so
   two traced runs of the same seeded workload produce the same tree
   with the same simulated timings.
3. **Answers never change.**  Tracing observes; it must not reorder,
   skip, or retry anything.  ``tests/test_obs.py`` asserts bit-identical
   query results with tracing on and off.

Spans export to JSONL through a :class:`TraceSink` (streaming) or
:meth:`Tracer.export_jsonl` (after the fact);
``repro.experiments.trace_report`` renders the timeline and critical
path back out of the JSONL.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import Any, TextIO

from repro.common.errors import ReproError

__all__ = [
    "JsonlTraceSink",
    "Span",
    "TraceSink",
    "Tracer",
]


@dataclass(slots=True)
class Span:
    """One timed node of a trace tree.

    ``wall_*`` times come from :func:`time.perf_counter` (seconds);
    ``sim_*`` from the simulated clock when the tracer has one, else
    ``None``.  ``attrs`` are set at open or on the span the ``with``
    statement yields; ``events`` are ``(name, wall_offset,
    attrs)`` point annotations.  ``status`` is ``"ok"`` or ``"error"``
    (the span body raised; the error's repr lands in
    ``attrs["error"]``).
    """

    span_id: int
    parent_id: int | None
    kind: str
    name: str
    wall_start: float
    wall_end: float | None = None
    sim_start: float | None = None
    sim_end: float | None = None
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def wall_duration(self) -> float:
        """Wall-clock seconds spent inside the span (0.0 while open)."""
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start

    @property
    def sim_duration(self) -> float | None:
        """Simulated-clock time spent inside the span, when clocked."""
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (one JSONL line per span)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "wall_start": self.wall_start,
            "wall_end": self.wall_end,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "status": self.status,
            "attrs": self.attrs,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict` (used by ``trace_report``)."""
        return cls(
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            kind=data["kind"],
            name=data["name"],
            wall_start=data["wall_start"],
            wall_end=data["wall_end"],
            sim_start=data["sim_start"],
            sim_end=data["sim_end"],
            status=data.get("status", "ok"),
            attrs=dict(data.get("attrs", ())),
            events=list(data.get("events", ())),
        )


class TraceSink:
    """Receives each finished span; base class is a discard sink."""

    def emit(self, span: Span) -> None:
        """Called once per span, at close, in completion order."""

    def close(self) -> None:
        """Flush and release any underlying resource."""


class JsonlTraceSink(TraceSink):
    """Stream finished spans to a JSONL file (one span per line)."""

    def __init__(self, target: str | TextIO) -> None:
        if isinstance(target, str):
            self._file: TextIO = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            self._file = target
            self._owned = False

    def emit(self, span: Span) -> None:
        self._file.write(json.dumps(span.to_dict()) + "\n")

    def close(self) -> None:
        self._file.flush()
        if self._owned:
            self._file.close()


class Tracer:
    """Produces the span tree; one instance per traced client.

    *clock* is the simulated :class:`~repro.net.events.EventScheduler`
    whose ``now`` is recorded next to wall time (resolved automatically
    by :meth:`attach` when the substrate routes over a simulated
    network).  *sink* receives each span as it finishes; *keep* retains
    finished spans in :attr:`spans` for in-process inspection (the
    default — turn it off for unbounded streaming runs).  *registry*,
    when given, receives every finished span's timing via
    :meth:`~repro.obs.registry.MetricsRegistry.observe_span` so span
    durations accumulate into labeled histograms.

    The stack of open spans is context-local (:mod:`contextvars`): each
    client thread and each asyncio task nests its own spans, and code
    started with a copy of a caller's context — the service runtime's
    bridge, ``asyncio.gather`` children — parents under the span that
    caller had open.  One tracer therefore serves concurrent clients.
    """

    def __init__(
        self,
        *,
        clock: Any | None = None,
        sink: TraceSink | None = None,
        keep: bool = True,
        registry: Any | None = None,
    ) -> None:
        self.clock = clock
        self.sink = sink
        self.registry = registry
        self._keep = keep
        self._ids = itertools.count(1)
        #: Open spans of the current context, outermost first.  An
        #: immutable tuple: a copied context must not see later pushes.
        self._stack: ContextVar[tuple[Span, ...]] = ContextVar(
            "repro-span-stack", default=()
        )
        self.spans: list[Span] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None outside any span."""
        stack = self._stack.get()
        return stack[-1] if stack else None

    def _now_sim(self) -> float | None:
        clock = self.clock
        return None if clock is None else clock.now

    @contextmanager
    def span(self, kind: str, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span of the current span (or a new root)."""
        stack = self._stack.get()
        parent = stack[-1].span_id if stack else None
        span = Span(
            span_id=next(self._ids),
            parent_id=parent,
            kind=kind,
            name=name,
            wall_start=time.perf_counter(),
            sim_start=self._now_sim(),
            attrs=dict(attrs),
        )
        token = self._stack.set(stack + (span,))
        try:
            yield span
        except BaseException as error:
            span.status = "error"
            span.attrs.setdefault("error", repr(error))
            raise
        finally:
            self._stack.reset(token)
            span.wall_end = time.perf_counter()
            span.sim_end = self._now_sim()
            if self._keep:
                self.spans.append(span)
            if self.sink is not None:
                self.sink.emit(span)
            if self.registry is not None:
                self.registry.observe_span(span)

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point-in-time event to the current span.

        Dropped silently outside any span — wrappers emit retry/fault
        events unconditionally and a bare (un-spanned) DHT call has no
        tree to hang them on.
        """
        span = self.current
        if span is None:
            return
        span.events.append(
            {
                "name": name,
                "wall_offset": time.perf_counter() - span.wall_start,
                "attrs": attrs,
            }
        )

    # ------------------------------------------------------------------
    # Component wiring
    # ------------------------------------------------------------------

    def attach(self, dht: Any) -> "Tracer":
        """Point every layer of a substrate stack at this tracer.

        Sets ``tracer`` on each layer of the wrapper stack
        (:meth:`~repro.dht.api.Dht.unwrap`) and on the network the
        stack routes over, when there is one.  That network's clock
        becomes this tracer's clock unless one was set explicitly.
        Returns self for chaining.
        """
        for layer in dht.unwrap():
            layer.tracer = self
        network = dht.network
        if network is not None:
            network.tracer = self
            if self.clock is None:
                self.clock = network.clock
        return self

    def detach(self, dht: Any) -> None:
        """Undo :meth:`attach` on every layer of the stack."""
        for layer in dht.unwrap():
            if layer.tracer is self:
                layer.tracer = None
        network = dht.network
        if network is not None and network.tracer is self:
            network.tracer = None

    # ------------------------------------------------------------------
    # Inspection and export
    # ------------------------------------------------------------------

    def roots(self) -> list[Span]:
        """Finished spans with no parent, in completion order."""
        return [span for span in self.spans if span.parent_id is None]

    def children_of(self, span: Span) -> list[Span]:
        """Finished direct children of *span*, in completion order."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def clear(self) -> None:
        """Drop retained spans (open spans are unaffected)."""
        self.spans.clear()

    def export_jsonl(self, path: str) -> int:
        """Write every retained span to *path*; returns the count."""
        open_spans = len(self._stack.get())
        if open_spans:
            raise ReproError(
                f"cannot export while {open_spans} spans are open"
            )
        sink = JsonlTraceSink(path)
        try:
            for span in self.spans:
                sink.emit(span)
        finally:
            sink.close()
        return len(self.spans)
