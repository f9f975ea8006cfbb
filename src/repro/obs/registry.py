"""One registry over every counter the system keeps.

The cost counters live where the costs are paid —
:class:`~repro.dht.api.DhtStats` on the substrate facade,
:class:`~repro.net.stats.NetworkStats` on the simulated wire, cache
tallies next to the DHT meters — which is right for the hot path but
wrong for experiments, which want *one* ``snapshot()``/``reset()``
surface.  :class:`MetricsRegistry` supplies it: existing stats objects
register as named sources (anything exposing ``snapshot()`` is
adaptable; ``reset()`` is honoured when present), gauges register as
callables evaluated at snapshot time, and the registry's own labeled
:class:`Counter`/:class:`Histogram` instruments carry whatever the
observability plane measures on top (span timings, report tallies).

Snapshot keys are dotted: ``"<source>.<counter>"`` for adapted
sources, the instrument name (plus ``{label=value,...}``) for native
instruments.  ``reset()`` zeroes every resettable source and every
native instrument in one call — the fix for the phase-leak class of
bugs where an experiment resets ``DhtStats`` but forgets the network
counters (or vice versa) and the next phase inherits the residue.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Callable, Mapping
from typing import Any

from repro.common.errors import ReproError

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


def _render_labels(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing labeled counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Mapping[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (>= 0) to the counter."""
        if amount < 0:
            raise ReproError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    @property
    def key(self) -> str:
        """The snapshot key, ``name{label=value,...}``."""
        return self.name + _render_labels(self.labels)


class Histogram:
    """A labeled distribution: count/total/min/max plus quantiles.

    Observations are kept sorted (``bisect.insort``) so quantiles are
    exact; the retained list is capped at *max_samples* (oldest-ignored
    reservoir is unnecessary at experiment scale — once full, new
    observations still update count/total/min/max but are not stored).
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "_samples", "_max_samples")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, Any],
        max_samples: int = 8192,
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        self._max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._samples) < self._max_samples:
            insort(self._samples, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The *q*-quantile (0 <= q <= 1) of retained observations."""
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        position = min(
            len(self._samples) - 1, int(q * (len(self._samples) - 1) + 0.5)
        )
        return self._samples[position]

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._samples.clear()

    @property
    def key(self) -> str:
        return self.name + _render_labels(self.labels)


class MetricsRegistry:
    """Labeled counters/histograms plus adapters over existing stats.

    Usage::

        registry = MetricsRegistry.for_index(index)
        before = registry.snapshot()
        index.range_query(region)
        increments = registry.delta(before)   # {"dht.lookups": 9, ...}
        registry.reset()                      # every source, one call
    """

    def __init__(self) -> None:
        self._sources: dict[str, Any] = {}
        self._gauges: dict[str, Callable[[], Mapping[str, float]]] = {}
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, name: str, source: Any) -> None:
        """Adapt *source* (must expose ``snapshot() -> mapping``).

        Its keys appear in this registry's snapshot as
        ``"<name>.<key>"``; a ``reset()`` method, when present, is
        called by :meth:`reset`.
        """
        if name in self._sources or name in self._gauges:
            raise ReproError(f"metrics source {name!r} already registered")
        if not callable(getattr(source, "snapshot", None)):
            raise ReproError(
                f"metrics source {name!r} has no snapshot() method"
            )
        self._sources[name] = source

    def register_gauges(
        self, name: str, read: Callable[[], Mapping[str, float]]
    ) -> None:
        """Register a read-only gauge group evaluated at snapshot time.

        Gauges describe current state (cache occupancy, tree size);
        :meth:`reset` never touches them.
        """
        if name in self._sources or name in self._gauges:
            raise ReproError(f"metrics source {name!r} already registered")
        self._gauges[name] = read

    def counter(self, name: str, /, **labels: Any) -> Counter:
        """Get or create the native counter ``name{labels}``."""
        key = name + _render_labels(labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, labels)
        return instrument

    def histogram(self, name: str, /, **labels: Any) -> Histogram:
        """Get or create the native histogram ``name{labels}``."""
        key = name + _render_labels(labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, labels)
        return instrument

    @classmethod
    def for_index(cls, index: Any) -> "MetricsRegistry":
        """A registry wired to one index's whole substrate stack.

        Registers the shared :class:`~repro.dht.api.DhtStats` as
        ``dht``, the simulated network's stats (when the substrate
        routes over one) as ``net``, and the client leaf cache (when
        configured) as the ``cache`` gauge group.
        """
        from repro.adaptive.plane import AdaptiveDht  # obs sits below it

        registry = cls()
        dht = index.dht
        registry.register("dht", dht.stats)
        if dht.network is not None:
            registry.register("net", dht.network.stats)
        for layer in dht.unwrap():
            if isinstance(layer, AdaptiveDht):
                registry.register("adaptive", layer.adaptive_stats)
                break
        cache = getattr(index, "cache", None)
        if cache is not None:
            registry.register_gauges(
                "cache",
                lambda: {
                    "size": len(cache),
                    "capacity": cache.capacity,
                    "generation": cache.generation,
                },
            )
        return registry

    # ------------------------------------------------------------------
    # The one snapshot()/reset() contract
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Every counter the registry knows, flat, dotted keys."""
        out: dict[str, float] = {}
        for name, source in self._sources.items():
            for key, value in source.snapshot().items():
                out[f"{name}.{key}"] = value
        for name, read in self._gauges.items():
            for key, value in read().items():
                out[f"{name}.{key}"] = value
        for counter in self._counters.values():
            out[counter.key] = counter.value
        for histogram in self._histograms.values():
            out[f"{histogram.key}.count"] = histogram.count
            out[f"{histogram.key}.total"] = histogram.total
        return out

    def delta(self, before: Mapping[str, float]) -> dict[str, float]:
        """Increments of the current snapshot over *before*.

        Keys absent from *before* count from zero; gauge keys are
        included as plain differences (they may go negative).
        """
        after = self.snapshot()
        return {
            key: value - before.get(key, 0)
            for key, value in after.items()
        }

    def reset(self) -> None:
        """Zero every resettable source and native instrument."""
        for source in self._sources.values():
            reset = getattr(source, "reset", None)
            if callable(reset):
                reset()
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    # ------------------------------------------------------------------
    # Tracer integration
    # ------------------------------------------------------------------

    def observe_span(self, span: Any) -> None:
        """Accumulate one finished span's wall time into histograms.

        Wired through ``Tracer(registry=...)``: per-(kind, name) wall
        durations land in ``span_seconds{kind=...,name=...}`` and span
        counts in ``spans{kind=...}``.
        """
        self.histogram(
            "span_seconds", kind=span.kind, name=span.name
        ).observe(span.wall_duration)
        self.counter("spans", kind=span.kind).inc()
