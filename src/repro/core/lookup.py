"""The m-LIGHT lookup operation (Section 5), plus the cached hint path.

Given a data key δ, return the leaf bucket covering δ.  The candidate
labels are the prefixes (length ``m+1`` to ``m+1+D``) of the root label
followed by the interleaved binary expansion of δ; the engine binary
searches this candidate set, spending one DHT-get per probe.

Probe outcomes and how they cut the search interval — each is a
consequence of the naming function's structure (see the worked example
for ``<0.3, 0.9>`` in the paper):

* **miss** (no bucket at ``fmd(c_mid)``): then ``fmd(c_mid)`` is not an
  internal node, so the target leaf is no longer than it — the upper
  bound drops to ``len(fmd(c_mid))``, strictly below ``mid``.
* **hit, covering**: done.  A leaf covers δ iff its label is a prefix
  of the candidate string — the rule
  :meth:`~repro.core.cache.LeafCache.propose` walks by.  Cell faces are
  dyadic and the interleave takes exact floors, so this string test
  answers as the cell's geometry would, without building a region.
* **hit, not covering**: ``fmd(c_mid)`` is internal (a leaf is named to
  it), so the target is strictly deeper; moreover *every* candidate in
  the contiguous run named to ``fmd(c_mid)`` is ruled out at once
  (the probed bucket is the only leaf with that name), so the lower
  bound jumps past the run's end.

When the caller supplies a :class:`~repro.core.cache.LeafCache`, the
engine first probes the name of the deepest cached label covering δ.
A fresh hit answers in **one** DHT-get.  A stale hint (the cached leaf
split or merged away since it was observed) is just another probe of a
candidate prefix, so its outcome feeds the very same case analysis
above and tightens the interval the fallback binary search starts
from — correctness never depends on cache freshness, and every hint
probe is metered like any other DHT-get.

The search itself lives in :class:`PointLookupCursor`: state and
decisions — the *next key to probe*, what each outcome means — and no
loop.  :func:`lookup_steps` is the one probe loop, a generator of
``GET`` steps; :func:`point_lookup` is the lookup *operation* (that
loop under its ``query`` span), which :func:`lookup_point` hands to the
substrate's :meth:`~repro.dht.api.Dht.drive` and an insert or delete
``yield from``s — on the service runtime without leaving the event
loop between probes.  The range-query engine instead folds one step of
every in-flight cursor into each of its parallel rounds, so concurrent
fallback searches advance together with the frontier.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.common.errors import IndexCorruptionError, NodeUnreachableError
from repro.common.geometry import Point, check_point
from repro.common.labels import candidate_string
from repro.core.cache import LeafCache
from repro.core.keys import bucket_key
from repro.core.naming import name_run_end, naming_function
from repro.core.results import LookupResult
from repro.dht.api import GET, Dht, DhtStats

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

__all__ = [
    "LookupResult", "PointLookupCursor", "lookup_point", "lookup_steps", "point_lookup"
]


class PointLookupCursor:
    """Resumable binary search for the leaf covering one point.

    The cursor holds the search interval and, after construction or
    each :meth:`advance`, the next candidate name to probe.  The caller
    owns the DHT traffic: fetch :meth:`current_key`, feed the returned
    bucket (or ``None``) back through :meth:`advance`, repeat until
    :attr:`done` — :func:`lookup_steps` is that loop for one cursor,
    :class:`~repro.core.rangequery.RangeCursor` advances many, a slot
    of each round apiece.  Splitting the state from the transport is
    what lets a range query run many searches in lockstep — one
    ``get_many_outcomes`` per search level instead of one ``get`` per
    probe.

    Cache hint proposal happens at construction (and its miss/hit/stale
    tallies land on *stats*), so concurrently-driven cursors all
    propose against the same cache state regardless of execution order.
    """

    __slots__ = (
        "_stats",
        "_cache",
        "_dims",
        "_point",
        "_candidate",
        "_low",
        "_high",
        "_hint",
        "_name",
        "probes",
        "result",
        "tracer",
    )

    def __init__(
        self,
        stats: DhtStats,
        point: Point,
        dims: int,
        max_depth: int,
        *,
        min_label_length: int | None = None,
        max_label_length: int | None = None,
        cache: LeafCache | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self._stats = stats
        self._cache = cache
        self.tracer = tracer
        self._dims = dims
        self._point = check_point(point, dims)
        self._candidate = candidate_string(self._point, max_depth)
        self._low = dims + 1
        self._high = len(self._candidate)
        if min_label_length is not None:
            self._low = max(self._low, min_label_length)
        if max_label_length is not None:
            self._high = min(self._high, max_label_length)
        self.probes = 0
        self.result: LookupResult | None = None
        self._hint: str | None = None
        self._name: str | None = None
        if cache is not None:
            hint = cache.propose(self._candidate, self._low, self._high)
            if hint is None:
                stats.cache_misses += 1
            else:
                self._hint = hint
                self._name = naming_function(hint, dims)
                if tracer is not None:
                    tracer.event("cache_hint", label=hint)
        if self._name is None:
            self._select_mid()

    @property
    def done(self) -> bool:
        """True once the covering leaf was found."""
        return self.result is not None

    def current_key(self) -> str:
        """The DHT key the cursor wants probed next."""
        assert self._name is not None, "cursor already done"
        return bucket_key(self._name)

    def _select_mid(self) -> None:
        if self._low > self._high:
            raise IndexCorruptionError(
                f"lookup of {self._point} exhausted candidates; index "
                "tree is inconsistent or max_depth is smaller than the "
                "real tree depth"
            )
        mid = (self._low + self._high) // 2
        self._name = naming_function(self._candidate[:mid], self._dims)

    def probe_failed(self) -> bool:
        """Consume an *unreachable* outcome for :meth:`current_key`.

        Returns True when the cursor can make progress anyway — only
        the hinted probe can: the hint names one specific (possibly
        dead) peer's key, so the cursor evicts the hint from the cache
        (a dead hint must not stay cached and redirect the next lookup
        to the same unreachable peer) and falls back to the ordinary
        binary search, whose first mid-probe targets a different key.

        A failed *search* probe returns False: re-probing the same key
        cannot progress — the retry wrapper below already spent its
        budget on it — so the caller must degrade (mark the subquery
        unresolved) or propagate.
        """
        self.probes += 1
        if self._hint is None:
            return False
        hint, self._hint = self._hint, None
        self._cache.forget(hint)
        if self.tracer is not None:
            self.tracer.event("cache_hint_dead", label=hint)
        self._select_mid()
        return True

    def advance(self, bucket) -> None:
        """Consume the probe outcome for :meth:`current_key`."""
        self.probes += 1
        name = self._name

        if self._hint is not None:
            hint, self._hint = self._hint, None
            if bucket is not None and self._candidate.startswith(bucket.label):
                self._stats.cache_hits += 1
                self._cache.observe(bucket.label)
                self.result = LookupResult(bucket, self.probes, self.probes)
                self._name = None
                return
            # Stale: the cached leaf split or merged away.  The probe
            # still proved a bound under the *current* tree (same case
            # analysis as the binary search below), so fall back with a
            # tightened interval.
            self._stats.cache_stale += 1
            self._cache.forget(hint)
            if self.tracer is not None:
                self.tracer.event("cache_hint_stale", label=hint)
            if bucket is None:
                # fmd(hint) is not internal: target length <= len(name).
                self._high = min(self._high, len(name))
            else:
                # fmd(hint) is internal; its one named leaf is current
                # (worth caching) but not the target: skip its whole
                # candidate run.
                self._cache.observe(bucket.label)
                self._low = max(
                    self._low,
                    name_run_end(self._candidate, len(name), self._dims) + 1,
                )
            self._select_mid()
            return

        if bucket is None:
            # fmd(c_mid) is not internal: target length <= len(name).
            if len(name) < self._low:
                raise IndexCorruptionError(
                    f"lookup of {self._point}: miss at {name!r} "
                    f"contradicts lower bound {self._low}"
                )
            self._high = len(name)
        elif self._candidate.startswith(bucket.label):
            if self._cache is not None:
                self._cache.observe(bucket.label)
            self.result = LookupResult(bucket, self.probes, self.probes)
            self._name = None
            return
        else:
            # fmd(c_mid) is internal and its one named leaf is not the
            # target: skip the whole candidate run named to it.
            new_low = name_run_end(self._candidate, len(name), self._dims) + 1
            if new_low <= self._low:
                raise IndexCorruptionError(
                    f"lookup of {self._point}: no progress at name {name!r}"
                )
            self._low = new_low
        self._select_mid()


def lookup_steps(cursor: PointLookupCursor) -> Generator[tuple, Any, LookupResult]:
    """The one probe loop: ``GET`` steps until *cursor* is done.

    An unreachable probe (thrown in) goes to
    :meth:`PointLookupCursor.probe_failed`; when the search cannot go
    on without it, the error leaves the operation.
    """
    while not cursor.done:
        try:
            bucket = yield (GET, cursor.current_key())
        except NodeUnreachableError:
            if not cursor.probe_failed():
                raise
        else:
            cursor.advance(bucket)
    return cursor.result


def point_lookup(
    stats: DhtStats, point: Point, dims: int, max_depth: int, *,
    cache: LeafCache | None = None, tracer: "Tracer | None" = None,
) -> Generator[tuple, Any, LookupResult]:
    """The lookup operation: locate the leaf bucket covering *point*.

    *cache* enables the hinted fast path and is warmed with every leaf
    this lookup observes (the covering leaf, and any current leaf a
    stale probe happened to return).

    *tracer*, when given, wraps the search in a ``query``-kind span and
    annotates cache hint proposals/evictions as span events.
    """
    if tracer is None:  # the bare probe loop, no frame around it
        return lookup_steps(
            PointLookupCursor(stats, point, dims, max_depth, cache=cache)
        )
    return _traced_lookup(stats, point, dims, max_depth, cache, tracer)


def _traced_lookup(stats, point, dims, max_depth, cache, tracer):
    with tracer.span("query", "lookup", point=list(point)) as span:
        result = yield from lookup_steps(PointLookupCursor(
            stats, point, dims, max_depth, cache=cache, tracer=tracer
        ))
        span.attrs["probes"] = result.lookups
        span.attrs["leaf"] = result.bucket.label
        return result


def lookup_point(
    dht: Dht, point: Point, dims: int, max_depth: int, *,
    cache: LeafCache | None = None, tracer: "Tracer | None" = None,
) -> LookupResult:
    """:func:`point_lookup`, driven to its result on *dht*."""
    return dht.drive(point_lookup(
        dht.stats, point, dims, max_depth, cache=cache, tracer=tracer
    ))
