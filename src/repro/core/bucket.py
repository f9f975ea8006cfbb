"""Leaf buckets — the distributed pieces of the decomposed kd-tree.

A leaf bucket stores two components (Section 3.3):

* the **label store** — the leaf's own label λ, which *encodes the
  whole local tree*: every ancestor is a prefix of λ and every branch
  node (an ancestor's sibling) is a modified prefix with the final bit
  inverted.  No adjacency lists are materialised or maintained;
* the **record store** — the data records whose keys fall in the
  leaf's cell, held by a :class:`~repro.core.store.ColumnarStore` of
  kind ``"columnar"`` or ``"numpy"`` (selected per index via
  ``IndexConfig(store=...)``).  The bucket delegates mutation and
  querying; both kinds answer bit-identically, in insertion order.

Buckets are the unit of DHT storage: the bucket of leaf λ lives at DHT
key ``fmd(λ)``.  On the wire a bucket travels as its struct-packed
codec form (:mod:`repro.core.codec`) — pickling a bucket (the service
runtime's frames, churn handoff) embeds the codec bytes rather than a
Python object graph.  A *decoded* bucket is lazy: it keeps the bytes it
arrived as.  The label store, :attr:`load`, :attr:`is_empty` and
:meth:`encoded_wire_size` answer from the validated header, so a lookup
probe or a peer that only stores and forwards never builds a record
store, and the first :meth:`matching` scans the bytes where they lie
(:func:`~repro.core.codec.match_encoded`, a
:class:`~repro.core.records.Record` per hit), so neither does a range
query's fetched leaf.  :meth:`add` splices the record's row into the
bytes (:func:`~repro.core.codec.append_row`), so neither does a
non-splitting insert.  The store is built by a second
:meth:`matching` (which then uses its run, as a resident
bucket queried again should) or the first use of :attr:`store` /
:attr:`records` / :meth:`remove`.  It is the bytes' columns, and
re-encoding hands them back; :attr:`records` builds its Records all,
on demand.

Hot-path caches (all derived, invisible to equality/repr):

* :attr:`region` is computed once per bucket — the label never changes
  after construction;
* the **codec bytes** of the current contents are kept as a memo tagged
  with the store's generation (:meth:`encoded_memo`): re-encoding an
  unmutated bucket, or one whose store was never built, copies nothing
  and packs nothing;
* each store backend keeps its own query structure (its run) current
  lazily, tagged by the store's **generation counter** (bumped on every
  mutation): a query merges in the rows appended since, and rebuilds
  after a remove — never by comparing record counts, so an equal-count
  remove+add can never serve a stale answer.  :meth:`matching_naive` keeps the
  original scan as the equivalence oracle for tests and benchmarks.
"""

from __future__ import annotations

import threading

from repro.common.errors import InvalidLabelError
from repro.common.geometry import Region, region_of_label
from repro.common.labels import check_label
from repro.core import codec
from repro.core.records import Record
from repro.core.store import DEFAULT_STORE, ColumnarStore, create_store
from repro.net.message import WireSized


#: Serialises the one-time store build of decoded buckets, and a splice
#: (:meth:`LeafBucket.add` while no store is built) with it: a bucket
#: resident on a service peer is reachable from whichever thread runs
#: the event loop and (through the ``items()`` / ``load_by_peer``
#: oracles) from client threads, and two threads must never end up
#: holding different stores.
_BUILD_LOCK = threading.Lock()


def split_dim_of(label: str, dims: int) -> int:
    """The dimension the cell of *label* halves when it splits (depth
    cycles through the ``m`` dimensions; the ordinary root splits
    dimension 0)."""
    depth = len(label) - dims - 1
    return depth % dims if depth > 0 else 0


class LeafBucket(WireSized):
    """One leaf of the space kd-tree, as stored in the DHT."""

    __slots__ = (
        "label",
        "dims",
        "_store",
        "_region",
        "_encoded",
        "_encoded_generation",
        "_encoded_count",
        "_header",
        "_byte_matched",
    )

    def __init__(
        self, label: str, dims: int, records=None, store: str = DEFAULT_STORE
    ) -> None:
        check_label(label, dims)
        self.label = label
        self.dims = dims
        self._region: Region | None = None
        self._encoded: bytes | None = None
        self._encoded_generation = -1
        self._encoded_count = 0
        self._header = None
        self._byte_matched = False
        self._store = create_store(
            store, dims, split_dim_of(label, dims), records
        )

    @classmethod
    def from_encoded(
        cls, label: str, dims: int, count: int, data: bytes,
        header: tuple | None = None,
    ) -> "LeafBucket":
        """A lazy bucket over its codec bytes *data*, whose header
        (*label*, *dims*, *count*) the caller has read.  The record store
        is built on first use; until then *data* is both the memo and
        the contents.  *header* is :func:`repro.core.codec.decode_bucket`'s
        whole parse, label checked: the build reuses it.  Without one
        the label is checked here and the build parses *data* again."""
        if header is None:
            check_label(label, dims)
        bucket = cls.__new__(cls)
        bucket.label = label
        bucket.dims = dims
        bucket._region = None
        bucket._store = None
        bucket._encoded = data
        bucket._encoded_generation = -1
        bucket._encoded_count = count
        bucket._header = header
        bucket._byte_matched = False
        return bucket

    # ------------------------------------------------------------------
    # Record store
    # ------------------------------------------------------------------

    @property
    def store(self) -> ColumnarStore:
        """The pluggable record-store backend holding this leaf's data
        (built from the codec bytes on first use, for a decoded
        bucket)."""
        store = self._store
        if store is None:
            store = self._build_store()
        return store

    def _build_store(self) -> ColumnarStore:
        with _BUILD_LOCK:
            store = self._store
            if store is None:
                store = codec.decode_store(
                    self._encoded, self.split_dim, self._header
                )
                # The bytes describe exactly what was just built: tag
                # them before publishing the store, which is assigned
                # once and last.
                self._encoded_generation = store.generation
                self._store = store
        return store

    @property
    def records(self) -> list[Record]:
        """The stored records, insertion order (read-only view: mutate
        through :meth:`add`/:meth:`remove` so the store's generation
        counter tracks every change)."""
        return self.store.records()

    @property
    def load(self) -> int:
        """Number of records stored (the paper's bucket load ``l``)."""
        store = self._store
        return self._encoded_count if store is None else store.count

    @property
    def is_empty(self) -> bool:
        """True for an empty bucket (the Fig. 6b measure)."""
        return self.load == 0

    def add(self, record: Record) -> None:
        """Insert *record*; its key must fall inside this cell.

        A bucket that is still its codec bytes splices the record's
        :func:`~repro.core.codec.encode_row` into them
        (:func:`~repro.core.codec.append_row`, the splice
        :meth:`appended` makes) and builds no store; a built store takes
        the record itself."""
        self._check_covers(record.key)
        if self._store is None:
            row = codec.encode_row(record.key, record.value)
            with _BUILD_LOCK:  # a build never reads half-spliced bytes
                if self._store is None:
                    data, _ = codec.append_row(self._encoded, row, self._header)
                    # A reader takes the bytes before the header: the
                    # header goes first, so it is theirs or None.
                    self._header = None
                    self._encoded = data
                    self._encoded_count += 1
                    return
        self.store.add(record)

    def appended(self, row: bytes) -> "LeafBucket":
        """This bucket plus the record of codec *row*
        (:func:`~repro.core.codec.encode_row`), as a new lazy bucket over
        spliced codec bytes (:func:`~repro.core.codec.append_row`): what
        a peer stores when an insert ships it one record, where
        :meth:`add` splices in place.  Builds no store and, while this
        bucket's memo is valid, packs no column; the row's point must
        fall inside this cell."""
        self._check_covers(codec.row_point(row, self.dims))
        data, header = codec.append_row(
            codec.encode_bucket(self), row, self._header
        )
        return LeafBucket.from_encoded(
            self.label, self.dims, self.load + 1, data, header
        )

    def _check_covers(self, point) -> None:
        if not self.covers(point):
            raise InvalidLabelError(
                f"record {point} outside cell of leaf {self.label!r}"
            )

    def remove(self, record: Record) -> bool:
        """Remove one occurrence of *record*; True when found."""
        return self.store.remove(record)

    def discard(self, point, value=None) -> bool:
        """Remove the first record at *point* whose payload is *value*
        (any payload when *value* is None); True when one was found."""
        for record in self.records:
            if record.key == point and (value is None or record.value == value):
                return self.remove(record)
        return False

    @property
    def split_dim(self) -> int:
        """The dimension this leaf's cell halves when it splits — the
        sort dimension of the backing store."""
        return split_dim_of(self.label, self.dims)

    def matching(self, query: Region) -> list[Record]:
        """Records whose keys match the closed *query* region.

        Served by the record-store backend; answers are bit-identical
        to :meth:`matching_naive`, in the same (insertion) order.  A
        bucket that is still its codec bytes answers its first match
        from them (:func:`~repro.core.codec.match_encoded`) and builds
        no store; a second match builds it as a record list, so that
        match and every later one use its run, as a resident
        store's second query does.
        """
        store = self._store
        if store is None:
            if not self._byte_matched:
                self._byte_matched = True
                # The bytes are read before the header: a re-encoding
                # or a splice clears the header first, so it is theirs
                # or None.
                return codec.match_encoded(
                    self._encoded, self._header, self.split_dim,
                    query.lows, query.highs,
                )
            store = self._build_store()
            store.records()
        return store.matching(query.lows, query.highs)

    def matching_naive(self, query: Region) -> list[Record]:
        """Reference linear scan: the oracle every store backend's
        :meth:`matching` is tested against."""
        return [
            record
            for record in self.store.records()
            if query.contains_point_closed(record.key)
        ]

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------

    def encoded_memo(self) -> bytes | None:
        """The codec bytes of the *current* contents, when known.

        Valid while the store is not built yet or still at the
        generation the bytes were taken at — the generation is the only
        staleness signal, so a direct ``bucket.store.add(...)`` or an
        equal-count remove+add invalidates the memo like any other
        mutation."""
        data = self._encoded
        if data is not None:
            store = self._store
            if store is None or store.generation == self._encoded_generation:
                return data
        return None

    def remember_encoding(self, data: bytes, generation: int) -> None:
        """Keep *data* as the memo of the store at *generation* (read
        before the columns were packed)."""
        self._header = None  # parsed from the old bytes, if at all
        self._encoded = data
        self._encoded_generation = generation

    def encoded_wire_size(self) -> int:
        """Exact codec byte size, what
        :func:`~repro.net.message.message_sizes` charges.  Packs no column:
        the memo's length when it is valid, else arithmetic plus the
        store's payload pickle, made once per generation and reused by
        :func:`~repro.core.codec.encode_bucket`."""
        return codec.encoded_bucket_size(self)

    def __reduce__(self):
        # Pickled buckets (churn handoff, copies, a pickled value that
        # holds one) travel as codec bytes, not as Python object graphs.
        return (codec.decode_bucket, (codec.encode_bucket(self),))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LeafBucket):
            return NotImplemented
        return (
            self.label == other.label
            and self.dims == other.dims
            and self.records == other.records
        )

    __hash__ = None  # mutable container, like the previous dataclass

    def __repr__(self) -> str:
        return (
            f"LeafBucket(label={self.label!r}, dims={self.dims!r}, "
            f"records={self.records!r})"
        )

    # ------------------------------------------------------------------
    # Label store (the encoded local tree)
    # ------------------------------------------------------------------

    @property
    def region(self) -> Region:
        """The half-open cell this leaf indexes (computed once)."""
        region = self._region
        if region is None:
            region = region_of_label(self.label, self.dims)
            self._region = region
        return region

    def covers(self, point) -> bool:
        """True when *point* falls in this leaf's cell."""
        return self.region.contains_point(point)
