"""The public m-LIGHT index.

:class:`MLightIndex` composes the naming function, the lookup engine,
the range-query engine and a split strategy over any
:class:`~repro.dht.api.Dht`.  All maintenance follows the incremental
property of Theorem 5:

* a **split** rewrites the surviving child in place (its name equals
  the dead leaf's name, hence the same DHT key and peer) and transfers
  only the other child(ren) — one routed put per moved leaf;
* a **merge** absorbs the bucket stored at the parent's own label into
  the bucket stored at the parent's name, transferring exactly one
  bucket.

The split strategy comes from ``config.strategy`` (``"threshold"`` or
``"data-aware"``) unless an explicit :class:`SplitStrategy` instance
overrides it, and ``config.cache_capacity > 0`` equips the index with a
client-side :class:`~repro.core.cache.LeafCache`: every operation's
point lookup then tries one hinted probe before the Section-5 binary
search, and range queries warm the cache with every leaf they visit.

Insert, delete, split and merge are *operations* in the sense of
:mod:`repro.dht.api`: generators that yield one step per DHT primitive
(and per dissemination hook) and never call the facade.  ``insert`` and
``delete`` hand one to :meth:`~repro.dht.api.Dht.drive`; a test or a
simulated client can advance the same generator a step at a time.

Typical use::

    from repro import MLightIndex, IndexConfig, Region
    from repro.dht.localhash import LocalDht

    config = IndexConfig(dims=2, max_depth=28, cache_capacity=256)
    index = MLightIndex(LocalDht(128), config)
    index.insert((0.2, 0.4), "concert")
    hits = index.range_query(Region((0.1, 0.3), (0.3, 0.5))).records
"""

from __future__ import annotations

from collections.abc import Generator, Iterable, Iterator
from typing import Any

from repro.common.config import IndexConfig
from repro.common.errors import IndexCorruptionError, NodeUnreachableError
from repro.common.geometry import Point, RegionLike, as_region, check_point
from repro.common.labels import parent, root_label, sibling, virtual_root
from repro.core.bucket import LeafBucket
from repro.core.cache import LeafCache
from repro.core.keys import bucket_key, name_from_key
from repro.core.knn import KnnEngine
from repro.core.lookup import lookup_point, point_lookup
from repro.core.naming import (
    MergeHomes,
    SplitHomes,
    merge_homes,
    naming_function,
    split_homes,
)
from repro.core.rangequery import RangeQueryEngine
from repro.core.records import Record
from repro.core.results import KnnResult, LookupResult, RangeQueryResult
from repro.core.split import SplitPlan, SplitStrategy, build_strategy
from repro.dht.api import CALL, GET, PUT_MANY, REMOVE, REWRITE, Dht
from repro.obs.trace import Tracer


class MLightIndex:
    """Multi-dimensional Lightweight Hash Tree over a DHT."""

    def __init__(
        self,
        dht: Dht,
        config: IndexConfig | None = None,
        strategy: SplitStrategy | None = None,
        *,
        cache: LeafCache | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._config = config if config is not None else IndexConfig()
        self._adaptive = None
        if self._config.adaptive is not None:
            # Wrap the substrate in the adaptive read plane (hotspot
            # detection, hot-bucket replication, learned shortcuts)
            # before anything else sees it, so every engine, cache and
            # wrapper routes through it.  Imported lazily: the plane is
            # an optional layer, and core stays importable without it.
            from repro.adaptive.plane import AdaptiveDht

            self._adaptive = AdaptiveDht(dht, self._config.adaptive)
            dht = self._adaptive
        self._dht = dht
        if strategy is None:
            strategy = build_strategy(self._config)
        self._strategy = strategy
        if cache is None and self._config.cache_capacity > 0:
            cache = LeafCache(self._config.cache_capacity)
        self._cache = cache
        if tracer is None and self._config.tracing:
            tracer = Tracer()
        self._tracer = tracer
        if tracer is not None:
            # Thread the tracer down the substrate stack (retry and
            # fault wrappers included) and into the simulated network,
            # so DHT-primitive and message-round spans nest under the
            # query spans this index opens.
            tracer.attach(dht)
        self._range_engine = RangeQueryEngine(
            dht,
            self._config.dims,
            self._config.max_depth,
            cache=cache,
            tracer=tracer,
        )
        self._knn_engine = KnnEngine(
            dht,
            self._config.dims,
            self._config.max_depth,
            cache=cache,
            tracer=tracer,
        )
        self._dissemination: Any | None = None
        self._bootstrap()

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def dims(self) -> int:
        """Data dimensionality m."""
        return self._config.dims

    @property
    def max_depth(self) -> int:
        """The globally known maximum tree depth D (Section 5)."""
        return self._config.max_depth

    @property
    def config(self) -> IndexConfig:
        """The index configuration."""
        return self._config

    @property
    def dht(self) -> Dht:
        """The underlying DHT (its ``stats`` carry the paper's costs)."""
        return self._dht

    @property
    def adaptive(self):
        """The adaptive read plane (:class:`~repro.adaptive.AdaptiveDht`)
        this index routes through; None when ``config.adaptive`` is."""
        return self._adaptive

    @property
    def strategy(self) -> SplitStrategy:
        """The active split strategy."""
        return self._strategy

    @property
    def cache(self) -> LeafCache | None:
        """This client's leaf cache; None when caching is disabled."""
        return self._cache

    @property
    def tracer(self) -> Tracer | None:
        """The attached tracer; None when tracing is disabled."""
        return self._tracer

    def attach_dissemination(self, plane: Any) -> None:
        """Attach a dissemination plane observing structural events.

        The plane (see :class:`repro.mcast.ContinuousQueryPlane`) gets
        ``on_insert(leaf_label, record)`` after a record lands,
        ``on_split(homes)`` after a split's buckets are re-homed, and
        ``on_merge(homes)`` after each merge step — the same
        :class:`~repro.core.naming.SplitHomes` /
        :class:`~repro.core.naming.MergeHomes` the buckets were placed
        by, so subscription tables ride Theorem 5's exactly-one-bucket
        maintenance without re-deriving it.
        """
        self._dissemination = plane

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def lookup(self, point: Point) -> LookupResult:
        """Locate the leaf bucket covering *point* (Section 5).

        With a cache, a warm region answers in one hinted DHT-get; a
        stale or missing hint falls back to the binary search.
        """
        return lookup_point(
            self._dht, point, self.dims, self.max_depth,
            cache=self._cache, tracer=self._tracer,
        )

    def exact_match(self, point: Point) -> list[Record]:
        """All records whose key equals *point* exactly."""
        point = check_point(point, self.dims)
        bucket = self.lookup(point).bucket
        return [record for record in bucket.records if record.key == point]

    def insert(self, key, value: Any = None) -> LookupResult:
        """Insert a record; returns the lookup that placed it.

        Cost: the lookup probes, one record of movement to the leaf's
        peer, plus whatever the split strategy triggers.
        """
        record = Record.make(key, value, dims=self.dims)
        tracer = self._tracer
        if tracer is None:
            return self._dht.drive(self._insert(record))
        with tracer.span("update", "insert", key=list(record.key)) as span:
            result = self._dht.drive(self._insert(record))
            span.attrs["leaf"] = result.bucket.label
            return result

    def _find(self, point: Point) -> Generator[tuple, Any, LookupResult]:
        """The lookup an insert or delete embeds: the same operation,
        under the same ``query`` span, as :meth:`lookup` drives."""
        return point_lookup(
            self._dht.stats, point, self.dims, self.max_depth,
            cache=self._cache, tracer=self._tracer,
        )

    def _insert(self, record: Record) -> Generator[tuple, Any, LookupResult]:
        result = yield from self._find(record.key)
        bucket = result.bucket
        bucket.add(record)
        self._dht.stats.records_moved += 1
        yield (REWRITE, self._key_of(bucket), bucket)
        if self._dissemination is not None:
            # Push before any split: the subscription table is still
            # homed at the pre-split leaf the record landed in.
            yield (CALL, self._dissemination.on_insert, (bucket.label, record))
        plan = self._strategy.plan_split(
            bucket.label, bucket.records, self.dims, self.max_depth
        )
        if plan is not None:
            if self._tracer is not None:
                self._tracer.event("split", origin=plan.origin)
            yield from self._split(plan)
        return result

    def insert_many(self, items: Iterable) -> int:
        """Insert records, (key, value) pairs or bare keys; the count.

        Accepted item spellings are exactly those of
        :meth:`Record.coerce`, shared with :func:`~repro.core.bulkload.
        bulk_load`.
        """
        count = 0
        for item in items:
            record = Record.coerce(item, dims=self.dims)
            self.insert(record.key, record.value)
            count += 1
        return count

    def delete(self, key, value: Any = None) -> bool:
        """Delete one record matching *key* (and *value*, when given).

        Returns False when no such record exists.  A successful delete
        may trigger cascading sibling merges.
        """
        point = check_point(tuple(key), self.dims)
        tracer = self._tracer
        if tracer is None:
            return self._dht.drive(self._delete(point, value))
        with tracer.span("update", "delete", key=list(point)) as span:
            deleted = self._dht.drive(self._delete(point, value))
            span.attrs["deleted"] = deleted
            return deleted

    def _delete(self, point: Point, value: Any) -> Generator[tuple, Any, bool]:
        bucket = (yield from self._find(point)).bucket
        victim = None
        for record in bucket.records:
            if record.key == point and (value is None or record.value == value):
                victim = record
                break
        if victim is None:
            return False
        bucket.remove(victim)
        yield (REWRITE, self._key_of(bucket), bucket)
        yield from self._merge(bucket)
        return True

    def range_query(
        self, query: RegionLike, lookahead: int = 1
    ) -> RangeQueryResult:
        """All records in the closed region *query* (Section 6).

        *query* is a :class:`~repro.common.geometry.Region` or a plain
        ``(lows, highs)`` pair.  ``lookahead=1`` (the default) runs
        the basic algorithm; 2 or 4 run the parallel variants evaluated
        in Fig. 7.  Every leaf the query visits warms this client's
        cache.
        """
        return self._range_engine.query(as_region(query), lookahead)

    def knn(self, point: Point, k: int) -> KnnResult:
        """The *k* records nearest to *point* (exact, Euclidean).

        A similarity-query extension built on the paper's range
        primitive; see :mod:`repro.core.knn`.
        """
        return self._knn_engine.query(point, k)

    # ------------------------------------------------------------------
    # Oracle access (metrics and tests; never on the query path)
    # ------------------------------------------------------------------

    def buckets(self) -> Iterator[LeafBucket]:
        """Iterate every leaf bucket in the index (zero metered cost)."""
        for dht_key, value in self._dht.items():
            if isinstance(value, LeafBucket) and dht_key.startswith("ml:"):
                yield value

    def tree_size(self) -> int:
        """Number of leaf buckets (== number of internal nodes)."""
        return sum(1 for _ in self.buckets())

    def total_records(self) -> int:
        """Records stored across all buckets."""
        return sum(bucket.load for bucket in self.buckets())

    def check_invariants(self) -> None:
        """Verify the structural invariants; raises on violation.

        Checks the leaf set tiles the space (labels are prefix-free and
        complete), every bucket sits under its own name's key, and every
        record lies in its leaf's cell.
        """
        labels = {}
        for dht_key, value in self._dht.items():
            if not (isinstance(value, LeafBucket) and dht_key.startswith("ml:")):
                continue
            name = name_from_key(dht_key)
            expected = naming_function(value.label, self.dims)
            if expected != name:
                raise IndexCorruptionError(
                    f"bucket {value.label!r} stored at {name!r}, "
                    f"expected {expected!r}"
                )
            labels[value.label] = value
        if not labels:
            raise IndexCorruptionError("index has no buckets at all")
        for label, bucket in labels.items():
            for other in labels:
                if other != label and other.startswith(label):
                    raise IndexCorruptionError(
                        f"leaves {label!r} and {other!r} overlap"
                    )
            region = bucket.region
            for record in bucket.records:
                if not region.contains_point(record.key):
                    raise IndexCorruptionError(
                        f"record {record.key} outside leaf {label!r}"
                    )
        # Completeness: the sibling of every non-root leaf's ancestors
        # must be covered by some leaf (prefix of or extending it).
        for label in labels:
            probe = label
            while probe != root_label(self.dims):
                sib = sibling(probe, self.dims)
                covered = any(
                    other.startswith(sib) or sib.startswith(other)
                    for other in labels
                )
                if not covered:
                    raise IndexCorruptionError(
                        f"no leaf covers branch node {sib!r}"
                    )
                probe = parent(probe, self.dims)

    # ------------------------------------------------------------------
    # Maintenance internals
    # ------------------------------------------------------------------

    def _key_of(self, bucket: LeafBucket) -> str:
        return bucket_key(naming_function(bucket.label, self.dims))

    def _bootstrap(self) -> None:
        """Create the root bucket unless the DHT already carries one."""
        root_key = bucket_key(virtual_root(self.dims))
        if self._dht.peek(root_key) is not None:
            return
        self._dht.put(root_key, self._bucket(root_label(self.dims)))

    def _split(self, plan: SplitPlan) -> Generator[tuple, Any, None]:
        """Apply a split plan with incremental maintenance (Theorem 5).

        :func:`~repro.core.naming.split_homes` places the plan's
        leaves; this yields the IO.  The moved leaves (including empty
        ones, which the bijection requires) go to independent peers, so
        one split is one parallel round of routed puts with their
        records as movement; the survivor replaces the old bucket under
        the *same key* at zero cost.
        """
        homes = split_homes(
            plan.origin, [label for label, _ in plan.leaves], self.dims
        )
        records = dict(plan.leaves)
        moved = [
            (bucket_key(name), self._bucket(label, records[label]))
            for label, name in homes.moved
        ]
        yield (PUT_MANY, moved, [bucket.load for _, bucket in moved])
        yield (
            REWRITE,
            bucket_key(homes.name),
            self._bucket(homes.survivor, records[homes.survivor]),
        )
        self._recache(homes)
        if self._dissemination is not None:
            yield (CALL, self._dissemination.on_split, (homes,))

    def _merge(self, bucket: LeafBucket) -> Generator[tuple, Any, None]:
        """Cascade sibling merges upward while the strategy approves.

        :func:`~repro.core.naming.merge_homes` says where the sibling
        pair under parent p lives — keys ``fmd(p)`` and ``p`` (Theorem
        5) — so one get inspects the sibling; a merge removes the
        bucket at key ``p`` (one bucket transferred) and rewrites the
        one at ``fmd(p)`` in place.  A merge is optional maintenance:
        a sibling (or moved child) whose owner is unreachable ends the
        cascade with both buckets as they were, and a later delete in
        the leaf tries again.
        """
        while bucket.label != root_label(self.dims):
            homes = merge_homes(bucket.label, self.dims)
            try:
                other = yield (GET, bucket_key(homes.sibling_name))
                if other is None:
                    raise IndexCorruptionError(
                        f"missing bucket at {homes.sibling_name!r} while "
                        f"probing the sibling of {bucket.label!r}"
                    )
                if other.label != homes.sibling:
                    return  # the sibling is an internal node; no merge
                if not self._strategy.should_merge(bucket.load, other.load):
                    return
                moved = bucket if homes.child_is_moved else other
                yield (REMOVE, bucket_key(homes.parent), moved.load)
            except NodeUnreachableError:
                if self._tracer is not None:
                    self._tracer.event("merge_skipped", parent=homes.parent)
                return
            merged = self._bucket(
                homes.parent, list(bucket.records) + list(other.records)
            )
            if self._tracer is not None:
                self._tracer.event("merge", parent=homes.parent)
            yield (REWRITE, bucket_key(homes.name), merged)
            self._recache(homes)
            if self._dissemination is not None:
                yield (CALL, self._dissemination.on_merge, (homes,))
            bucket = merged

    def _bucket(self, label: str, records=None) -> LeafBucket:
        return LeafBucket(
            label, self.dims, records, store=self._config.store
        )

    def _recache(self, homes: SplitHomes | MergeHomes) -> None:
        """This client made the change, so its cache can stay exact:
        the dead labels stopped being leaves, the born ones began."""
        if self._cache is not None:
            for label in homes.dead:
                self._cache.forget(label)
            for label in homes.born:
                self._cache.observe(label)
