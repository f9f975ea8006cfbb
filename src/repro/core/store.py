"""The record-store plane: bucket interiors.

A :class:`~repro.core.bucket.LeafBucket` is the DHT's storage unit, but
*how* a bucket holds its records is a representation choice, not an
index-semantics choice.  This module makes that choice explicit:

* :class:`ColumnarStore` is the one store body — ``add`` / ``remove``
  / ``count`` / ``matching`` / ``records`` / ``to_rows`` /
  ``from_rows`` — with a **generation counter** bumped on every
  successful mutation, so owners (and the store's own lazily built
  query structures) invalidate derived state exactly when the contents
  changed, never by comparing record counts;
* :class:`Rows` is the column form of a record batch: per-dimension
  coordinate columns plus an optional values list — what the codec
  packs, what splitting and the bulk loader partition;
* ``STORES`` is the closed table of the two kinds, one body with two
  column types and matching kernels, that :func:`create_store` builds:
  ``"columnar"`` (:class:`ColumnarStore`, the default, ``array('d')``
  columns) and ``"numpy"`` (``float64`` ndarrays,
  :class:`~repro.core.npstore.NumpyStore`; falls back to
  ``"columnar"`` with a warning when numpy is not installed).

A store holds its contents in one of two forms.  Built from
:class:`Rows` (a split or bulk-loaded leaf, a decoded bucket once it is
mutated, queried twice or asked for its store) it *is* its
insertion-order columns and one values list: ``add`` appends to them,
``to_rows`` hands them back to the codec, and the first ``matching``
after a mutation scans them (:func:`match_columns`, which also scans a
fetched leaf's codec bytes without any store) and builds a
:class:`Record` per hit only.  Built from records — or once
``records()`` is asked for (merge, delete, the oracles, ``__eq__``, a
second query at one generation) — it is a record list plus a sorted
run, which a query brings up to date: it merges the rows appended since
the run was built, and builds it from scratch only after a ``remove``.

Both kinds return **bit-identical, insertion-ordered** answers;
``tests/test_hotpath_equivalence.py`` sweeps them against the naive
scan (``LeafBucket.matching_naive``) in 1–4 dimensions.
"""

from __future__ import annotations

import pickle
import threading
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import partial

from repro.common.errors import InvalidPointError, UnknownStoreError, unknown_kind
from repro.core.records import Record, build_records

__all__ = [
    "Rows",
    "check_columns",
    "ColumnarStore",
    "STORES",
    "create_store",
    "DEFAULT_STORE",
]

DEFAULT_STORE = "columnar"

#: Serialises a column-form store's row appends and its switch to a
#: record list: a store resident on a service peer is reachable from
#: whichever thread runs the event loop and from client threads, and
#: one row must land in every column (and the values list) or in none.
_COLUMNS_LOCK = threading.Lock()


def _payloads(records) -> tuple | None:
    """Aligned payloads of *records*, or ``None`` when all are None."""
    if any(record.value is not None for record in records):
        return tuple(record.value for record in records)
    return None


def _key_columns(records, dims: int) -> list:
    """Per-dimension coordinate tuples of *records*, insertion order."""
    return list(zip(*(record.key for record in records))) or [()] * dims


def _make_records(key_columns, values) -> list[Record]:
    """Records from per-dimension lists of floats and the aligned
    payloads (``None``: every payload is None)."""
    return build_records(zip(*key_columns), values)


def match_columns(columns, values, sort_dim: int, lows, highs) -> list[Record]:
    """The rows of insertion-order *columns* (and aligned *values*, or
    ``None``) inside the closed box, as Records in insertion order.

    Two passes: one over the *sort_dim* column, then each other column
    over the survivors only; a Record is built per hit only.  Columns
    are any indexable float sequences — a store's own ``array('d')``
    ones or :func:`repro.core.codec.match_encoded`'s views of codec
    bytes."""
    low = lows[sort_dim]
    high = highs[sort_dim]
    hits = [
        i
        for i, coordinate in enumerate(columns[sort_dim])
        if low <= coordinate <= high
    ]
    for dim, column in enumerate(columns):
        if dim == sort_dim or not hits:
            continue
        low = lows[dim]
        high = highs[dim]
        hits = [i for i in hits if low <= column[i] <= high]
    return _make_records(
        [[column[i] for i in hits] for column in columns],
        None if values is None else [values[i] for i in hits],
    )


def check_columns(columns) -> None:
    """Raise :class:`InvalidPointError` unless every coordinate of every
    column lies in ``[0, 1)``, the data-key domain.

    One compare per cell that a NaN fails (``min``/``max`` of a NaN
    column compare false and let it through): a ``float64`` ndarray in
    one vectorized mask, any other sequence value by value (a cell that
    is no number raises :class:`TypeError`).  The bulk loader checks
    all three of its input forms with it before placing anything."""
    for dim, column in enumerate(columns):
        if hasattr(column, "__array_interface__"):
            inside = bool(((column >= 0.0) & (column < 1.0)).all())
        else:
            inside = all(0.0 <= value < 1.0 for value in column)
        if not inside:
            raise InvalidPointError(
                f"coordinate outside [0, 1) in dimension {dim}"
            )


class Rows:
    """Column-major form of a record batch.

    ``columns[d][i]`` is coordinate ``d`` of record ``i`` (insertion
    order); ``values`` is the aligned payload sequence, or ``None`` as a
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

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def partition(self, dim: int, midpoint: float) -> tuple["Rows", "Rows"]:
        """Split into (keys[dim] < midpoint, keys[dim] >= midpoint),
        preserving insertion order on both sides — exactly the float
        compare :func:`repro.core.split.partition_records` applies to
        record lists, applied to whole columns at once."""
        column = self.columns[dim]
        if hasattr(column, "__array_interface__"):  # one vectorized mask
            upper = column >= midpoint
            return self._take((~upper).nonzero()[0]), self._take(
                upper.nonzero()[0]
            )
        lower_idx = []
        upper_idx = []
        for position, coordinate in enumerate(column):
            if coordinate < midpoint:
                lower_idx.append(position)
            else:
                upper_idx.append(position)
        return self._take(lower_idx), self._take(upper_idx)

    def _take(self, positions) -> "Rows":
        columns = [
            column[positions]
            if hasattr(column, "__array_interface__")
            else array("d", [column[i] for i in positions])
            for column in self.columns
        ]
        values = self.values
        if values is not None:
            values = [values[i] for i in positions]
        return Rows(self.dims, columns, values)


class ColumnarStore:
    """One bucket interior: insertion-order columns, or a record list
    plus a sorted run.

    Every successful mutation bumps :attr:`generation` — the *only*
    staleness signal owners may rely on.  ``matching`` answers a closed
    box query in insertion order, bit-identical to the naive scan.

    A column-form store answers the first query after a mutation with
    one pass over its columns, building Records for the hits only (a
    split leaf is often queried once).  Queried again at the
    same generation (a resident bucket) it turns into a record list,
    whose run — positions sorted on the bucket's split dimension
    and the key columns in that order, sorted from the columns it had —
    a query narrows with two bisects, then filters one dimension at a
    time.  Mutations are O(1)
    appends.  The first query that finds the run older than the store
    merges the rows appended since into a fresh copy (``bisect_right``
    per row: the stable sort's tie order); after a ``remove`` it sorts
    all rows again.  The run is one ``(generation, order, columns)``
    tuple, replaced whole and never mutated, so a reader on another
    thread sees the old run or the new one.  Subclasses change the
    column type (:meth:`_adopt`, :meth:`_append_key`) and the matching
    kernels (:meth:`_scan`, :meth:`_fresh_run`, :meth:`_merged_run`,
    :meth:`_select`).
    """

    #: The ``STORES`` kind; the codec writes it into a bucket's header.
    kind = "columnar"

    __slots__ = (
        "dims",
        "sort_dim",
        "generation",
        "_blob_memo",
        "_records",
        "_rows",
        "_run",
        "_removed_at",
        "_scanned_generation",
    )

    def __init__(
        self, dims: int, sort_dim: int, records: Sequence[Record] = ()
    ) -> None:
        self.dims = dims
        self.sort_dim = sort_dim
        self.generation = 0
        #: ``(generation, values blob)`` — see :meth:`values_blob`.
        self._blob_memo: tuple[int, bytes] = (-1, b"")
        #: Exactly one of the two is the contents: the record list, or
        #: the columns (``None`` once the store turned into records).
        self._records: list[Record] | None = list(records)
        self._rows: Rows | None = None
        #: The sorted run, ``(generation, order, columns)``: insertion
        #: positions sorted on ``sort_dim`` and the key columns in that
        #: order, as of ``generation``.  Replaced whole, never mutated.
        self._run = None
        #: The generation the last ``remove`` made.  A run tagged older
        #: is built again, not merged into (its positions shifted), even
        #: one a query on another thread published after the remove.
        self._removed_at = 0
        self._scanned_generation = -1

    @classmethod
    def from_rows(cls, rows: Rows, sort_dim: int) -> "ColumnarStore":
        """A store that is *rows*' columns (copied into this kind's
        column type) and values (``None`` when all are None)."""
        store = cls(rows.dims, sort_dim)
        values = rows.values
        if values is not None and all(value is None for value in values):
            values = None
        store._rows = Rows(
            rows.dims,
            [cls._adopt(column) for column in rows.columns],
            None if values is None else list(values),
        )
        store._records = None
        return store

    # -- column type -----------------------------------------------------

    @staticmethod
    def _adopt(column) -> array:
        """A store-owned copy of *column* in this kind's column type."""
        if hasattr(column, "__array_interface__"):  # bulk-load ndarray
            column = column.astype("d", copy=False).tobytes()
        return array("d", column)

    @staticmethod
    def _append_key(rows: Rows, key) -> None:
        for column, coordinate in zip(rows.columns, key):
            column.append(coordinate)

    # -- contents --------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of records stored."""
        rows = self._rows
        return len(self._records) if rows is None else len(rows)

    def add(self, record: Record) -> None:
        """Append *record* (bumps :attr:`generation`)."""
        if self._rows is None:
            self._records.append(record)
        else:
            with _COLUMNS_LOCK:
                rows = self._rows
                if rows is None:
                    self._records.append(record)
                else:
                    value = record.value
                    if rows.values is not None:
                        rows.values.append(value)
                    elif value is not None:
                        rows.values = [None] * len(rows) + [value]
                    self._append_key(rows, record.key)
        self.generation += 1

    def remove(self, record: Record) -> bool:
        """Remove one occurrence; True when found (bumps generation)."""
        records = self.records()
        try:
            records.remove(record)
        except ValueError:
            return False
        self._removed_at = self.generation + 1
        self.generation += 1
        return True

    def records(self) -> list[Record]:
        """The stored records, insertion order; owned by the store, so
        read-only (mutate through :meth:`add`/:meth:`remove`)."""
        if self._rows is not None:
            with _COLUMNS_LOCK:
                rows = self._rows
                if rows is not None:
                    # Published before the columns are dropped: a
                    # reader that finds no columns finds the records.
                    self._records = _make_records(
                        [column.tolist() for column in rows.columns],
                        rows.values,
                    )
                    self._rows = None
        return self._records

    def to_rows(self) -> Rows:
        """Column-major contents (insertion order) for the codec; may be
        the store's own columns, so read-only like :meth:`records`."""
        rows = self._rows
        if rows is not None:
            return rows
        records = self._records
        return Rows(
            self.dims,
            [self._adopt(column) for column in _key_columns(records, self.dims)],
            _payloads(records),
        )

    def rows_or_records(self) -> "Rows | list[Record]":
        """The contents in whichever form the store already holds, for
        split planning (:mod:`repro.core.split` partitions either)."""
        rows = self._rows
        return self._records if rows is None else rows

    def payload_values(self) -> Sequence | None:
        """Aligned record payloads, or ``None`` when every payload is
        None (the codec's compact all-None encoding)."""
        rows = self._rows
        return _payloads(self._records) if rows is None else rows.values

    def values_blob(self) -> bytes:
        """The codec's values section: the pickled payload tuple, or
        ``b""`` when every payload is None.  Pickled once per
        generation, however often the bucket is sized or encoded."""
        generation = self.generation
        tagged, blob = self._blob_memo
        if tagged != generation:
            values = self.payload_values()
            blob = (
                b""
                if values is None
                else pickle.dumps(
                    tuple(values), protocol=pickle.HIGHEST_PROTOCOL
                )
            )
            self._blob_memo = (generation, blob)
        return blob

    # -- queries ---------------------------------------------------------

    def matching(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> list[Record]:
        """Records inside the closed box, in insertion order."""
        generation = self.generation
        run = self._run
        if run is None or run[0] != generation:
            rows = self._rows
            if rows is not None and self._scanned_generation != generation:
                self._scanned_generation = generation
                return self._scan(rows, lows, highs)
            records = self.records()
            if run is None or run[0] < self._removed_at:
                keys = (
                    _key_columns(records, self.dims)
                    if rows is None
                    else rows.columns  # the columns that just became records
                )
                run = self._fresh_run(keys, generation)
            else:
                run = self._merged_run(run, records, generation)
            self._run = run
        return self._select(run, lows, highs)

    def _scan(self, rows: Rows, lows, highs) -> list[Record]:
        """One pass over the insertion-order columns; Records for the
        hits only."""
        return match_columns(
            rows.columns, rows.values, self.sort_dim, lows, highs
        )

    def _fresh_run(self, keys, generation: int) -> tuple:
        """The run from scratch over insertion-order key columns *keys*:
        a stable sort of the positions on the ``sort_dim`` column."""
        sort_column = keys[self.sort_dim]
        order = sorted(range(len(sort_column)), key=sort_column.__getitem__)
        return (
            generation,
            order,
            [array("d", [column[i] for i in order]) for column in keys],
        )

    def _merged_run(self, run, records, generation: int) -> tuple:
        """*run* plus the records appended after it, in a fresh copy.

        Each appended position lands after every entry whose key is
        ``<=`` its own (``bisect_right``): it is larger than all of
        them, so this is exactly the stable sort's tie order."""
        _, order, columns = run
        order = order.copy()
        columns = [column[:] for column in columns]
        sort_dim = self.sort_dim
        sort_column = columns[sort_dim]
        for position in range(len(order), len(records)):
            key = records[position].key
            at = bisect_right(sort_column, key[sort_dim])
            order.insert(at, position)
            for column, coordinate in zip(columns, key):
                column.insert(at, coordinate)
        return generation, order, columns

    def _select(self, run, lows, highs) -> list[Record]:
        _, order, columns = run
        sort_dim = self.sort_dim
        column = columns[sort_dim]
        start = bisect_left(column, lows[sort_dim])
        stop = bisect_right(column, highs[sort_dim], lo=start)
        if start >= stop:
            return []
        candidates: Sequence[int] = range(start, stop)
        for dim, col in enumerate(columns):
            if dim == sort_dim:
                continue
            low = lows[dim]
            high = highs[dim]
            candidates = [i for i in candidates if low <= col[i] <= high]
            if not candidates:
                return []
        # Ascending insertion positions reproduce the naive scan's
        # output order exactly.
        records = self._records  # a run is only built over records
        return list(
            map(records.__getitem__, sorted(map(order.__getitem__, candidates)))
        )


# ----------------------------------------------------------------------
# The closed kind table
# ----------------------------------------------------------------------


def _build(cls, dims: int, sort_dim: int, source=None) -> ColumnarStore:
    if source is None:
        return cls(dims, sort_dim)
    if isinstance(source, Rows):
        return cls.from_rows(source, sort_dim)
    return cls(dims, sort_dim, source)


#: :mod:`repro.core.npstore`, imported by the first numpy store (it
#: imports this module, so not at import time).
_npstore = None


def _numpy_factory(dims: int, sort_dim: int, source=None) -> ColumnarStore:
    """The ``"numpy"`` backend, degrading to columnar without numpy."""
    global _npstore
    npstore = _npstore
    if npstore is None:
        from repro.core import npstore

        _npstore = npstore
    if npstore.HAVE_NUMPY:
        return _build(npstore.NumpyStore, dims, sort_dim, source)
    npstore.warn_numpy_missing()
    return _build(ColumnarStore, dims, sort_dim, source)


#: kind -> factory(dims, sort_dim, source) -> ColumnarStore, where
#: *source* is ``None`` (empty store), a sequence of :class:`Record`,
#: or a :class:`Rows` batch.
STORES = {"columnar": partial(_build, ColumnarStore), "numpy": _numpy_factory}


def create_store(
    kind: str, dims: int, sort_dim: int, source=None
) -> ColumnarStore:
    """Instantiate store *kind* over *source* records or rows."""
    factory = STORES.get(kind)
    if factory is None:
        raise unknown_kind(UnknownStoreError, "record store", kind, STORES)
    return factory(dims, sort_dim, source)
