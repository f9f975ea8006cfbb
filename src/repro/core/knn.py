"""k-nearest-neighbour queries over the m-LIGHT index.

The paper motivates over-DHT indexing with range *and similarity*
queries (Section 1) but only develops range processing; this module
supplies the similarity side as an extension, built entirely on the
published primitives: an expanding-ring search that issues range
queries over growing boxes centred on the query point until the k-th
neighbour provably lies inside the searched ball.

Correctness argument: after a round that returned at least ``k``
candidates within distance ``r`` of the query point, every unexplored
cell lies outside the ``r``-box and therefore cannot contain anything
closer than the current k-th candidate — so the top-k is exact.

The engine threads the client's :class:`~repro.core.cache.LeafCache`
(when one is configured) through both the seeding point lookup and the
ring range queries, so repeated similarity searches around the same
region stay on the hinted fast path.

Degraded mode: ring queries inherit the range engine's partial-result
contract — when a probe stays unreachable past the retry budget the
ring answers with ``complete=False`` and the k-NN result carries that
flag through: the listed neighbours are real records at true
distances, but a closer neighbour may hide in an unresolved subregion.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.geometry import Point, Region, check_point
from repro.core.cache import LeafCache
from repro.core.lookup import lookup_point
from repro.core.rangequery import RangeQueryEngine
from repro.core.results import KnnResult, Neighbor
from repro.dht.api import Dht

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

__all__ = ["KnnEngine", "KnnResult", "Neighbor", "euclidean"]


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two keys.

    Delegates to :func:`math.dist` (C implementation) — ranking every
    candidate of a k-NN ring is a hot loop, and ``math.dist`` also
    raises on arity mismatch where a hand-rolled ``zip`` would
    silently truncate.
    """
    return math.dist(a, b)


class KnnEngine:
    """Expanding-ring k-NN over any DHT carrying an m-LIGHT tree."""

    def __init__(
        self,
        dht: Dht,
        dims: int,
        max_depth: int,
        cache: LeafCache | None = None,
        *,
        tracer: "Tracer | None" = None,
    ) -> None:
        self._dht = dht
        self._dims = dims
        self._max_depth = max_depth
        self._cache = cache
        self.tracer = tracer
        # Ring expansions are plain range queries: each ring's frontier
        # probes go out as one round.
        self._ranges = RangeQueryEngine(
            dht, dims, max_depth, cache=cache, tracer=tracer
        )

    def query(self, point: Point, k: int) -> KnnResult:
        """Return the *k* records nearest to *point* (exact).

        Costs the initial point lookup plus one range query per ring
        expansion; the ring at least doubles each round, so the number
        of expansions is logarithmic in the final radius.
        """
        if k < 1:
            raise ReproError(f"k must be >= 1, got {k}")
        point = check_point(point, self._dims)
        tracer = self.tracer
        if tracer is None:
            return self._execute(point, k)
        with tracer.span(
            "query", "knn", k=k, point=list(point)
        ) as span:
            result = self._execute(point, k)
            span.attrs["lookups"] = result.lookups
            span.attrs["rounds"] = result.rounds
            span.attrs["complete"] = result.complete
            return result

    def _execute(self, point: Point, k: int) -> KnnResult:

        # Seed the radius from the leaf covering the query point: its
        # cell diameter is the natural scale of the local data density.
        # The seed only tunes the starting radius, so an unreachable
        # seed probe degrades to a conservative guess instead of
        # aborting — exactness still comes from the rings alone.
        lookups_before = self._dht.stats.lookups
        try:
            seed = lookup_point(
                self._dht, point, self._dims, self._max_depth,
                cache=self._cache, tracer=self.tracer,
            )
        except NodeUnreachableError:
            spent = self._dht.stats.lookups - lookups_before
            lookups = spent
            rounds = spent  # sequential probes: one round each
            radius = 2.0 ** -(self._max_depth // self._dims)
        else:
            lookups = seed.lookups
            rounds = seed.rounds
            region = seed.bucket.region
            radius = max(
                euclidean(region.lows, region.highs) / 2.0,
                1e-6,
            )

        complete = True
        while True:
            box = self._ball_box(point, radius)
            if self.tracer is not None:
                self.tracer.event("ring", radius=radius)
            result = self._ranges.query(box)
            lookups += result.lookups
            rounds += result.rounds
            complete = complete and result.complete
            ranked = sorted(
                (
                    Neighbor(record, euclidean(record.key, point))
                    for record in result.records
                ),
                key=lambda neighbor: (neighbor.distance, neighbor.record.key),
            )
            within = [n for n in ranked if n.distance <= radius]
            if len(within) >= k:
                return KnnResult(
                    tuple(within[:k]), lookups, rounds, complete=complete
                )
            if self._covers_everything(box):
                # Fewer than k records exist in total (or, degraded,
                # fewer were reachable).
                return KnnResult(
                    tuple(ranked[:k]), lookups, rounds, complete=complete
                )
            shortfall_boost = 2.0 if not ranked else 1.0
            if len(ranked) >= k:
                # We have k candidates but the k-th might be beaten by
                # an unseen point just outside the box: grow to cover
                # its distance.
                radius = max(2.0 * radius, ranked[k - 1].distance)
            else:
                radius *= 2.0 * shortfall_boost

    def _ball_box(self, point: Point, radius: float) -> Region:
        lows = tuple(max(0.0, value - radius) for value in point)
        highs = tuple(min(1.0, value + radius) for value in point)
        return Region(lows, highs)

    @staticmethod
    def _covers_everything(box: Region) -> bool:
        return all(low == 0.0 for low in box.lows) and all(
            high == 1.0 for high in box.highs
        )