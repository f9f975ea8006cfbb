"""Vectorized record store and batch label packing (numpy backend).

The ``"numpy"`` backend is the :class:`~repro.core.store.ColumnarStore`
body over one ``float64`` ndarray per dimension, with whole-column
kernels: a query is one boolean-mask reduction over insertion-order
columns (a column-form store builds Records for the hits only; a
record list keeps an ndarray run of its keys, which a query extends by
the rows appended since and builds again only after a ``remove``), so
hits come out in insertion order.  Answers are bit-identical to the
naive scan (same IEEE-754 compares on the same doubles), which the
equivalence sweep in ``tests/test_hotpath_equivalence.py`` asserts.

The bulk-load path never materialises :class:`~repro.core.records.
Record` objects: a coordinate matrix enters as
:class:`~repro.core.store.Rows` with ndarray columns,
:meth:`~repro.core.store.Rows.partition` splits whole columns per tree
level with one mask, and
:func:`validate_columns` (fixed-point scaling, the same
``int(c * 2**60)`` packing :func:`repro.common.labels.coordinate_bits`
uses) replaces per-record construction-time validation.
:func:`batch_interleave` exposes the packing as vectorized Morton/label
interleaving, bit-equal to :func:`repro.common.labels.interleave`.

numpy is an *optional* dependency (the ``[bench]`` extra): when the
import fails, :mod:`repro.core.store` transparently falls back to the
columnar backend with a one-time warning, so configs saying
``store="numpy"`` keep working everywhere.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence

from repro.common.errors import InvalidPointError
from repro.common.labels import MAX_RESOLUTION_BITS
from repro.core.records import Record
from repro.core.store import ColumnarStore, Rows, _make_records, check_columns

try:  # pragma: no cover - exercised via both branches in CI matrices
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None
    HAVE_NUMPY = False

__all__ = [
    "HAVE_NUMPY",
    "NumpyStore",
    "batch_interleave",
    "batch_morton_codes",
    "validate_columns",
    "warn_numpy_missing",
]

_SCALE = float(1 << MAX_RESOLUTION_BITS)

_warned_missing = False


def warn_numpy_missing() -> None:
    """Emit (once) the numpy-unavailable fallback warning."""
    global _warned_missing
    if _warned_missing:
        return
    _warned_missing = True
    warnings.warn(
        "numpy is not installed; the 'numpy' record store falls back to "
        "'columnar' (install the [bench] extra for the vectorized path)",
        RuntimeWarning,
        stacklevel=3,
    )


def _require_numpy() -> None:
    if not HAVE_NUMPY:
        raise ImportError(
            "numpy is required for repro.core.npstore vectorized helpers"
        )


# ----------------------------------------------------------------------
# Batch fixed-point packing (vectorized labels.coordinate_bits)
# ----------------------------------------------------------------------


def validate_columns(columns) -> list:
    """Check every coordinate lies in ``[0, 1)``
    (:func:`~repro.core.store.check_columns`, NaN-safe); return uint64
    packing.

    The returned arrays hold ``int(c * 2**60)`` per coordinate — exact,
    because a power-of-two multiply only changes the float's exponent —
    which is precisely the fixed-point form the label machinery's
    :func:`~repro.common.labels.coordinate_bits` derives bits from.
    One vectorized pass replaces per-record ``Record.make`` validation
    on the bulk-load fast path.
    """
    _require_numpy()
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    check_columns(columns)
    return [(column * _SCALE).astype(np.uint64) for column in columns]


def batch_morton_codes(columns, depth: int):
    """Morton codes (as uint64) of every point, vectorized.

    Bit ``k`` (MSB first) of each code is bit ``k // m + 1`` of
    coordinate ``k % m`` — the exact interleaving rule of
    :func:`repro.common.labels.interleave`.
    """
    _require_numpy()
    if not 0 <= depth <= MAX_RESOLUTION_BITS:
        raise InvalidPointError(
            f"bit depth {depth} outside [0, {MAX_RESOLUTION_BITS}]"
        )
    scaled = validate_columns(columns)
    dims = len(scaled)
    count = len(scaled[0]) if dims else 0
    codes = np.zeros(count, dtype=np.uint64)
    for k in range(depth):
        position = k // dims + 1
        shift = np.uint64(MAX_RESOLUTION_BITS - position)
        bit = (scaled[k % dims] >> shift) & np.uint64(1)
        codes = (codes << np.uint64(1)) | bit
    return codes


def batch_interleave(points, depth: int) -> list[str]:
    """Vectorized :func:`repro.common.labels.interleave` over a batch.

    *points* is an ``(n, m)`` coordinate matrix (or anything
    ``np.asarray`` makes one of); returns the *depth*-bit Morton string
    of every row, bit-identical to the scalar implementation.
    """
    _require_numpy()
    matrix = np.asarray(points, dtype=np.float64)
    if matrix.ndim != 2:
        raise InvalidPointError(
            f"expected an (n, dims) coordinate matrix, got shape "
            f"{matrix.shape}"
        )
    codes = batch_morton_codes(list(matrix.T), depth)
    if depth == 0:
        return [""] * len(codes)
    return [format(code, f"0{depth}b") for code in codes.tolist()]


# ----------------------------------------------------------------------
# Bulk-load input
# ----------------------------------------------------------------------


def rows_from_matrix(points, dims: int) -> Rows:
    """Build :class:`Rows` (values all None) from an ``(n, m)`` matrix,
    validating every coordinate in one vectorized pass."""
    _require_numpy()
    matrix = np.asarray(points, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != dims:
        raise InvalidPointError(
            f"expected an (n, {dims}) coordinate matrix, got shape "
            f"{matrix.shape}"
        )
    columns = [np.ascontiguousarray(matrix[:, dim]) for dim in range(dims)]
    validate_columns(columns)
    return Rows(dims, columns, None)


# ----------------------------------------------------------------------
# The vectorized record store
# ----------------------------------------------------------------------


class NumpyStore(ColumnarStore):
    """The :class:`~repro.core.store.ColumnarStore` body over ``float64``
    ndarray columns, with vectorized matching kernels.

    Every query is one mask reduction over insertion-order columns:
    a column-form store's own (Records for the hits only), or for a
    record list the run of its keys, extended by the appended tail.  An
    append copies each column (``np.append``) — still one pass in C
    where materialising the bucket would build a Record per row.
    """

    kind = "numpy"

    __slots__ = ()

    def __init__(
        self, dims: int, sort_dim: int, records: Sequence[Record] = ()
    ) -> None:
        _require_numpy()
        super().__init__(dims, sort_dim, records)

    @staticmethod
    def _adopt(column):
        return np.array(column, dtype=np.float64)

    @staticmethod
    def _append_key(rows: Rows, key) -> None:
        rows.columns = [
            np.append(column, coordinate)
            for column, coordinate in zip(rows.columns, key)
        ]

    @staticmethod
    def _hits(columns, lows, highs):
        """Ascending positions inside the box: one mask reduction."""
        mask = None
        for dim, column in enumerate(columns):
            dim_mask = (column >= lows[dim]) & (column <= highs[dim])
            mask = dim_mask if mask is None else (mask & dim_mask)
        return np.flatnonzero(mask)

    def _scan(self, rows: Rows, lows, highs) -> list[Record]:
        hits = self._hits(rows.columns, lows, highs)
        values = rows.values
        return _make_records(
            [column[hits].tolist() for column in rows.columns],
            None if values is None else [values[i] for i in hits.tolist()],
        )

    # The run is the insertion-order key columns (``order`` is None):
    # a whole-column mask costs no more than a sorted run's would.

    def _fresh_run(self, keys, generation: int) -> tuple:
        return generation, None, [
            np.asarray(column, dtype=np.float64) for column in keys
        ]

    def _merged_run(self, run, records, generation: int) -> tuple:
        columns = run[2]
        tail = records[len(columns[0]):]
        keys = np.array(
            [record.key for record in tail], dtype=np.float64
        ).reshape(len(tail), self.dims)
        return generation, None, [
            np.concatenate((column, keys[:, dim]))
            for dim, column in enumerate(columns)
        ]

    def _select(self, run, lows, highs) -> list[Record]:
        # The record list is kept (a run is only built over records),
        # so answers are plain list indexing — a fresh Record per match
        # per query would dominate the vectorized filter.
        records = self._records
        hits = self._hits(run[2], lows, highs)
        return list(map(records.__getitem__, hits.tolist()))
