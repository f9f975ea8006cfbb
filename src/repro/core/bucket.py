"""Leaf buckets — the distributed pieces of the decomposed kd-tree.

A leaf bucket stores two components (Section 3.3):

* the **label store** — the leaf's own label λ, which *encodes the
  whole local tree*: every ancestor is a prefix of λ and every branch
  node (an ancestor's sibling) is a modified prefix with the final bit
  inverted.  No adjacency lists are materialised or maintained;
* the **record store** — the data records whose keys fall in the
  leaf's cell, held by a pluggable
  :class:`~repro.core.store.RecordStore` backend (``"columnar"`` or
  ``"numpy"``, selected per index via ``IndexConfig(store=...)``).  The
  bucket delegates mutation and querying; backends answer
  bit-identically, in insertion order.

Buckets are the unit of DHT storage: the bucket of leaf λ lives at DHT
key ``fmd(λ)``.  On the wire a bucket travels as its struct-packed
codec form (:mod:`repro.core.codec`) — pickling a bucket (the service
runtime's frames, churn handoff) embeds the codec bytes rather than a
Python object graph.  A *decoded* bucket is lazy: it keeps the bytes it
arrived as and builds its record store on the first use of
:attr:`store` / :attr:`records` / :meth:`add` / :meth:`remove` /
:meth:`matching`; the label store, :attr:`load`, :attr:`is_empty` and
:meth:`encoded_wire_size` answer from the validated header, so a lookup
probe or a peer that only stores and forwards never builds one.

Hot-path caches (all derived, invisible to equality/repr):

* :attr:`region` is computed once per bucket — the label never changes
  after construction;
* the **codec bytes** of the current contents are kept as a memo tagged
  with the store's generation (:meth:`encoded_memo`): re-encoding an
  unmutated bucket, or one whose store was never built, copies nothing
  and packs nothing;
* each store backend rebuilds its own query structure lazily, tagged
  by the store's **generation counter** (bumped on every mutation) —
  never by comparing record counts, so an equal-count remove+add can
  never serve a stale answer.  :meth:`matching_naive` keeps the
  original scan as the equivalence oracle for tests and benchmarks.
"""

from __future__ import annotations

import threading

from repro.common.errors import InvalidLabelError
from repro.common.geometry import Region, region_of_label
from repro.common.labels import check_label
from repro.core.records import Record
from repro.core.store import DEFAULT_STORE, RecordStore, Rows, create_store


#: Serialises the one-time store build of decoded buckets: a bucket
#: resident on a service peer is reachable from the event-loop thread
#: and (through the ``items()`` / ``load_by_peer`` oracles) from client
#: threads, and two threads must never end up holding different stores.
_BUILD_LOCK = threading.Lock()


def split_dim_of(label: str, dims: int) -> int:
    """The dimension the cell of *label* halves when it splits (depth
    cycles through the ``m`` dimensions; the ordinary root splits
    dimension 0)."""
    depth = len(label) - dims - 1
    return depth % dims if depth > 0 else 0


class LeafBucket:
    """One leaf of the space kd-tree, as stored in the DHT."""

    __slots__ = (
        "label",
        "dims",
        "_store",
        "_region",
        "_encoded",
        "_encoded_generation",
        "_encoded_count",
    )

    def __init__(
        self,
        label: str,
        dims: int,
        records=None,
        store: str | RecordStore | None = None,
    ) -> None:
        check_label(label, dims)
        self.label = label
        self.dims = dims
        self._region: Region | None = None
        self._encoded: bytes | None = None
        self._encoded_generation = -1
        self._encoded_count = 0
        if isinstance(records, RecordStore):
            self._store = records
        elif isinstance(store, RecordStore):
            if records:
                raise ValueError(
                    "pass records through the store, not alongside it"
                )
            self._store = store
        else:
            kind = store if store is not None else DEFAULT_STORE
            source = records
            if source is not None and not isinstance(source, Rows):
                source = list(source)
            self._store = create_store(
                kind, dims, split_dim_of(label, dims), source
            )

    @classmethod
    def from_encoded(
        cls, label: str, dims: int, count: int, data: bytes
    ) -> "LeafBucket":
        """A lazy bucket over its codec bytes *data*, whose header
        (*label*, *dims*, *count*) :func:`repro.core.codec.decode_bucket`
        has already parsed.  The record store is built on first use;
        until then *data* is both the memo and the contents."""
        check_label(label, dims)
        bucket = cls.__new__(cls)
        bucket.label = label
        bucket.dims = dims
        bucket._region = None
        bucket._store = None
        bucket._encoded = data
        bucket._encoded_generation = -1
        bucket._encoded_count = count
        return bucket

    # ------------------------------------------------------------------
    # Record store
    # ------------------------------------------------------------------

    @property
    def store(self) -> RecordStore:
        """The pluggable record-store backend holding this leaf's data
        (built from the codec bytes on first use, for a decoded
        bucket)."""
        store = self._store
        if store is None:
            store = self._build_store()
        return store

    def _build_store(self) -> RecordStore:
        from repro.core.codec import decode_store

        with _BUILD_LOCK:
            store = self._store
            if store is None:
                store = decode_store(self._encoded, self.split_dim)
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
        """Insert *record*; its key must fall inside this cell."""
        if not self.covers(record.key):
            raise InvalidLabelError(
                f"record {record.key} outside cell of leaf {self.label!r}"
            )
        self.store.add(record)

    def remove(self, record: Record) -> bool:
        """Remove one occurrence of *record*; True when found."""
        return self.store.remove(record)

    @property
    def split_dim(self) -> int:
        """The dimension this leaf's cell halves when it splits — the
        sort dimension of the backing store."""
        return split_dim_of(self.label, self.dims)

    def matching(self, query: Region) -> list[Record]:
        """Records whose keys match the closed *query* region.

        Served by the record-store backend; answers are bit-identical
        to :meth:`matching_naive`, in the same (insertion) order.
        """
        return self.store.matching(query.lows, query.highs)

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
        self._encoded = data
        self._encoded_generation = generation

    def encoded_wire_size(self) -> int:
        """Exact codec byte size — the unified byte-accounting hook
        (:func:`repro.core.codec.payload_wire_size`).  Never encodes:
        the memo's length when it is valid, arithmetic otherwise."""
        from repro.core.codec import encoded_bucket_size

        return encoded_bucket_size(self)

    def __reduce__(self):
        # Pickled buckets (service frames, churn handoff, copies)
        # travel as codec bytes, not as Python object graphs.
        from repro.core.codec import decode_bucket, encode_bucket

        return (decode_bucket, (encode_bucket(self),))

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
