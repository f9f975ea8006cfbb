"""The record-store plane: pluggable bucket interiors.

A :class:`~repro.core.bucket.LeafBucket` is the DHT's storage unit, but
*how* a bucket holds its records is a representation choice, not an
index-semantics choice.  This module makes that choice explicit:

* :class:`RecordStore` is the contract every backend satisfies —
  ``add`` / ``remove`` / ``count`` / ``matching`` / ``records`` /
  ``to_rows`` / ``from_rows`` — with a **generation counter** bumped on
  every successful mutation, so owners (and the stores' own lazily
  built query structures) invalidate derived state exactly when the
  contents changed, never by comparing record counts (an equal-count
  remove+add must not serve stale answers);
* :class:`Rows` is the zero-copy-ish interchange format between
  backends and the bulk-load partitioner: per-dimension coordinate
  columns plus an optional values tuple.  Splitting moves *columns*
  between stores without materialising one :class:`Record` object per
  key;
* ``STORES`` is the open :class:`~repro.common.registry.Registry` of
  backends (:func:`register_store` / :func:`store_backends` /
  :func:`create_store`), so external ones (a compressed store, say)
  plug in without touching this module.  Two ship built in:

  ``"columnar"``
      :class:`ColumnarStore`, the default: a record list plus a lazily
      rebuilt sorted-column snapshot that two bisects narrow;
  ``"numpy"``
      vectorized per-dimension ``float64`` ndarrays
      (:mod:`repro.core.npstore`); falls back to ``"columnar"`` with a
      warning when numpy is not installed.

Every backend returns **bit-identical, insertion-ordered** answers;
``tests/test_hotpath_equivalence.py`` sweeps them against the naive
scan (``LeafBucket.matching_naive``) on random workloads in 1–4
dimensions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence

from repro.common.errors import UnknownStoreError
from repro.common.registry import Registry
from repro.core.records import Record

__all__ = [
    "Rows",
    "RecordStore",
    "ColumnarStore",
    "STORES",
    "register_store",
    "store_backends",
    "create_store",
    "DEFAULT_STORE",
]

DEFAULT_STORE = "columnar"


class Rows:
    """Column-major interchange form of a record batch.

    ``columns[d][i]`` is coordinate ``d`` of record ``i`` (insertion
    order); ``values`` is the aligned payload tuple, or ``None`` as a
    compact sentinel for "every payload is None" — the common case for
    bulk-loaded point sets, where it lets partitioning skip payload
    bookkeeping entirely.  Columns are any indexable float sequence:
    ``array('d')`` on the stdlib path, ``numpy.ndarray`` on the
    vectorized path (:meth:`partition` dispatches on the column type).
    """

    __slots__ = ("dims", "columns", "values")

    def __init__(self, dims: int, columns, values=None) -> None:
        self.dims = dims
        self.columns = columns
        self.values = values

    @classmethod
    def from_records(cls, records: Sequence[Record], dims: int) -> "Rows":
        columns = [
            array("d", (record.key[dim] for record in records))
            for dim in range(dims)
        ]
        if any(record.value is not None for record in records):
            values = tuple(record.value for record in records)
        else:
            values = None
        return cls(dims, columns, values)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def to_records(self) -> list[Record]:
        columns = self.columns
        if self.values is None:
            return [Record(key) for key in zip(*columns)] if columns else []
        return [
            Record(key, value)
            for key, value in zip(zip(*columns), self.values)
        ]

    def partition(self, dim: int, midpoint: float) -> tuple["Rows", "Rows"]:
        """Split into (keys[dim] < midpoint, keys[dim] >= midpoint),
        preserving insertion order on both sides — exactly the float
        compare :func:`repro.core.split.partition_records` applies to
        record lists, applied to whole columns at once."""
        column = self.columns[dim]
        if hasattr(column, "__array_interface__"):
            from repro.core.npstore import partition_ndarray_rows

            return partition_ndarray_rows(self, dim, midpoint)
        lower_idx = []
        upper_idx = []
        for position, coordinate in enumerate(column):
            if coordinate < midpoint:
                lower_idx.append(position)
            else:
                upper_idx.append(position)
        return self._take(lower_idx), self._take(upper_idx)

    def _take(self, positions: list[int]) -> "Rows":
        columns = [
            array("d", (column[i] for i in positions))
            for column in self.columns
        ]
        values = (
            None
            if self.values is None
            else tuple(self.values[i] for i in positions)
        )
        return Rows(self.dims, columns, values)


class RecordStore(ABC):
    """One bucket interior: records plus a query structure over them.

    Subclasses set :attr:`kind` (the registry name) and must bump
    :attr:`generation` on every successful mutation — it is the *only*
    staleness signal owners may rely on.  ``matching`` answers a closed
    box query in insertion order, bit-identical to the naive scan.
    """

    kind: str = "abstract"

    __slots__ = ("dims", "sort_dim", "generation")

    def __init__(self, dims: int, sort_dim: int) -> None:
        self.dims = dims
        self.sort_dim = sort_dim
        self.generation = 0

    @property
    @abstractmethod
    def count(self) -> int:
        """Number of records stored."""

    @abstractmethod
    def add(self, record: Record) -> None:
        """Append *record* (bumps :attr:`generation`)."""

    @abstractmethod
    def remove(self, record: Record) -> bool:
        """Remove one occurrence; True when found (bumps generation)."""

    @abstractmethod
    def matching(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> list[Record]:
        """Records inside the closed box, in insertion order."""

    @abstractmethod
    def records(self) -> list[Record]:
        """The stored records as a list, insertion order.

        The returned list is owned by the store — callers must treat it
        as read-only (mutate through :meth:`add`/:meth:`remove`, which
        maintain the generation contract).
        """

    @abstractmethod
    def to_rows(self) -> Rows:
        """Column-major snapshot (insertion order) for codecs/splits."""

    def payload_values(self) -> tuple | None:
        """Aligned record payloads, or ``None`` when every payload is
        None (the codec's compact all-None encoding)."""
        records = self.records()
        if any(record.value is not None for record in records):
            return tuple(record.value for record in records)
        return None

    @classmethod
    @abstractmethod
    def from_rows(cls, rows: Rows, sort_dim: int) -> "RecordStore":
        """Build a store from interchange rows without going through
        per-record ``add`` calls."""


class ColumnarStore(RecordStore):
    """A record list plus a sorted columnar snapshot for matching.

    ``bucket.matching(query)`` is the innermost loop of every range
    query, k-NN ring and baseline descent; a naive scan pays, per
    record, a generator, a ``zip`` and a tuple walk.  Here record keys
    are transposed into per-dimension ``array('d')`` columns ordered by
    the bucket's **split dimension**, a query narrows on that column
    with two binary searches, and the surviving run is filtered one
    dimension at a time with plain float compares.

    Mutations are O(1) list edits; the first ``matching`` after one
    rebuilds the snapshot, so write-heavy buckets never pay for it.
    The rebuild condition is *generation equality only* — never a
    record-count compare.
    """

    kind = "columnar"

    __slots__ = ("_records", "_order", "_columns", "_built_generation")

    def __init__(
        self, dims: int, sort_dim: int, records: Sequence[Record] = ()
    ) -> None:
        super().__init__(dims, sort_dim)
        self._records = list(records)
        #: The snapshot: insertion positions sorted on ``sort_dim`` and
        #: the key columns in that order, as of ``_built_generation``.
        self._order: list[int] = []
        self._columns: list[array] = []
        self._built_generation = -1

    @property
    def count(self) -> int:
        return len(self._records)

    def add(self, record: Record) -> None:
        self._records.append(record)
        self.generation += 1

    def remove(self, record: Record) -> bool:
        try:
            self._records.remove(record)
        except ValueError:
            return False
        self.generation += 1
        return True

    def _rebuild(self) -> None:
        records = self._records
        sort_dim = self.sort_dim
        order = sorted(
            range(len(records)), key=lambda i: records[i].key[sort_dim]
        )
        self._order = order
        self._columns = [
            array("d", [records[i].key[dim] for i in order])
            for dim in range(self.dims)
        ]
        self._built_generation = self.generation

    def matching(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> list[Record]:
        if self._built_generation != self.generation:
            self._rebuild()
        sort_dim = self.sort_dim
        column = self._columns[sort_dim]
        start = bisect_left(column, lows[sort_dim])
        stop = bisect_right(column, highs[sort_dim], lo=start)
        if start >= stop:
            return []
        candidates: Sequence[int] = range(start, stop)
        for dim, col in enumerate(self._columns):
            if dim == sort_dim:
                continue
            low = lows[dim]
            high = highs[dim]
            candidates = [i for i in candidates if low <= col[i] <= high]
            if not candidates:
                return []
        # Ascending insertion positions reproduce the naive scan's
        # output order exactly.
        order = self._order
        records = self._records
        return [records[i] for i in sorted(order[i] for i in candidates)]

    def records(self) -> list[Record]:
        return self._records

    def to_rows(self) -> Rows:
        return Rows.from_records(self._records, self.dims)

    @classmethod
    def from_rows(cls, rows: Rows, sort_dim: int) -> "ColumnarStore":
        return cls(rows.dims, sort_dim, rows.to_records())


# ----------------------------------------------------------------------
# The open backend registry
# ----------------------------------------------------------------------


def _sequence_factory(cls):
    def factory(dims: int, sort_dim: int, source=None) -> RecordStore:
        if source is None:
            return cls(dims, sort_dim)
        if isinstance(source, Rows):
            return cls.from_rows(source, sort_dim)
        return cls(dims, sort_dim, source)

    return factory


def _numpy_factory(dims: int, sort_dim: int, source=None) -> RecordStore:
    """The ``"numpy"`` backend, degrading to columnar without numpy."""
    from repro.core import npstore

    if npstore.HAVE_NUMPY:
        return _sequence_factory(npstore.NumpyStore)(dims, sort_dim, source)
    npstore.warn_numpy_missing()
    return _sequence_factory(ColumnarStore)(dims, sort_dim, source)


#: kind -> factory(dims, sort_dim, source) -> RecordStore, where
#: *source* is ``None`` (empty store), a sequence of :class:`Record`,
#: or a :class:`Rows` batch.
STORES = Registry(
    "store",
    UnknownStoreError,
    {"columnar": _sequence_factory(ColumnarStore), "numpy": _numpy_factory},
)
register_store = STORES.register
store_backends = STORES.kinds


def create_store(
    kind: str, dims: int, sort_dim: int, source=None
) -> RecordStore:
    """Instantiate backend *kind* over *source* records or rows."""
    factory = STORES.table.get(kind)
    if factory is None:
        factory = STORES.lookup(kind, "record store")  # raises, typed
    return factory(dims, sort_dim, source)
