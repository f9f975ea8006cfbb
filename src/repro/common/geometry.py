"""Multi-dimensional geometry for cells and query regions.

Two kinds of axis-aligned boxes appear in the system and they have
different boundary semantics:

* **Cells** — the regions of kd-tree labels.  Cells are half-open,
  ``[low, high)`` in every dimension, so the cells at any tree level
  tile the unit cube with every data key in *exactly one* cell.  Data
  keys therefore must lie in ``[0, 1)`` per dimension.
* **Queries** — user-supplied range-query rectangles.  Queries are
  closed, ``[low, high]``, matching the paper's "rated above 4 and
  published during 2007 and 2008" reading.

Both are represented by the same frozen :class:`Region`; the functions
below make the mixed-semantics predicates (overlap, coverage) explicit
so no call site re-derives boundary logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from functools import lru_cache

from repro.common.errors import (
    InvalidLabelError,
    InvalidPointError,
    InvalidRegionError,
)
from repro.common.labels import check_label

#: A data key: one float in [0, 1) per dimension.
Point = tuple[float, ...]


def check_point(point: Sequence[float], dims: int) -> Point:
    """Validate *point* and return it as a tuple.

    Raises :class:`InvalidPointError` for wrong arity or out-of-range
    coordinates.
    """
    if len(point) != dims:
        raise InvalidPointError(
            f"expected {dims} coordinates, got {len(point)}"
        )
    for value in point:
        if not 0.0 <= value < 1.0:
            raise InvalidPointError(
                f"coordinate {value!r} outside [0, 1); normalise the "
                "dataset first (see repro.datasets)"
            )
    return tuple(point)


@dataclass(frozen=True, slots=True)
class Region:
    """An axis-aligned box given by per-dimension ``lows`` and ``highs``.

    Immutable and hashable, so regions can key dictionaries and be used
    in sets during query decomposition.
    """

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise InvalidRegionError(
                f"lows/highs arity mismatch: {self.lows} vs {self.highs}"
            )
        if not self.lows:
            raise InvalidRegionError("regions must have at least 1 dimension")
        for low, high in zip(self.lows, self.highs):
            if not (0.0 <= low <= high <= 1.0):
                raise InvalidRegionError(
                    f"invalid extent [{low}, {high}] (need 0 <= low <= "
                    "high <= 1)"
                )

    @property
    def dims(self) -> int:
        """Number of dimensions."""
        return len(self.lows)

    def volume(self) -> float:
        """Product of per-dimension extents."""
        result = 1.0
        for low, high in zip(self.lows, self.highs):
            result *= high - low
        return result

    def side(self, dim: int) -> float:
        """Extent along dimension *dim*."""
        return self.highs[dim] - self.lows[dim]

    def center(self) -> Point:
        """Geometric centre of the region."""
        return tuple(
            (low + high) / 2.0 for low, high in zip(self.lows, self.highs)
        )

    def corner_low(self) -> Point:
        """The all-lows corner (always inside a half-open cell)."""
        return self.lows

    # ------------------------------------------------------------------
    # Cell semantics: half-open [low, high) boxes.
    # ------------------------------------------------------------------

    def contains_point(self, point: Sequence[float]) -> bool:
        """Half-open containment: ``low <= p < high`` per dimension.

        Raises :class:`InvalidPointError` on arity mismatch — ``zip``
        would otherwise silently truncate, letting a 1-D point "match"
        a 2-D region.
        """
        if len(point) != len(self.lows):
            raise InvalidPointError(
                f"point {tuple(point)!r} has {len(point)} coordinates, "
                f"region has {len(self.lows)} dimensions"
            )
        return all(
            low <= value < high
            for value, low, high in zip(point, self.lows, self.highs)
        )

    def split(self, dim: int) -> tuple["Region", "Region"]:
        """Halve the region along *dim*; return (lower, upper) halves.

        Cell bounds are dyadic rationals so the midpoint is exact in
        IEEE-754 arithmetic.
        """
        mid = (self.lows[dim] + self.highs[dim]) / 2.0
        lower_highs = self.highs[:dim] + (mid,) + self.highs[dim + 1:]
        upper_lows = self.lows[:dim] + (mid,) + self.lows[dim + 1:]
        return (
            Region(self.lows, lower_highs),
            Region(upper_lows, self.highs),
        )

    def contains_region(self, other: "Region") -> bool:
        """True when *other* (any semantics) nests inside this box."""
        return all(
            s_low <= o_low and o_high <= s_high
            for s_low, o_low, o_high, s_high in zip(
                self.lows, other.lows, other.highs, self.highs
            )
        )

    # ------------------------------------------------------------------
    # Query semantics: closed [low, high] boxes.
    # ------------------------------------------------------------------

    def contains_point_closed(self, point: Sequence[float]) -> bool:
        """Closed containment: ``low <= p <= high`` per dimension.

        Raises :class:`InvalidPointError` on arity mismatch (same
        guard as :meth:`contains_point`).
        """
        if len(point) != len(self.lows):
            raise InvalidPointError(
                f"point {tuple(point)!r} has {len(point)} coordinates, "
                f"region has {len(self.lows)} dimensions"
            )
        return all(
            low <= value <= high
            for value, low, high in zip(point, self.lows, self.highs)
        )


def unit_region(dims: int) -> Region:
    """The whole data space ``[0, 1]^m``."""
    if dims < 1:
        raise InvalidRegionError(f"dimensionality must be >= 1, got {dims}")
    return Region((0.0,) * dims, (1.0,) * dims)


#: What query entry points accept wherever a region is expected: a
#: ready :class:`Region`, or a ``(lows, highs)`` pair of coordinate
#: sequences.
RegionLike = Region | tuple[Sequence[float], Sequence[float]]


def as_region(value: RegionLike) -> Region:
    """Coerce *value* to a :class:`Region`.

    Accepts a ``Region`` unchanged, or a 2-element ``(lows, highs)``
    pair of per-dimension coordinate sequences — the normalisation used
    by every query entry point (``range_query``, aggregation), so call
    sites can pass plain tuples without importing geometry.
    """
    if isinstance(value, Region):
        return value
    if (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and isinstance(value[0], Sequence)
        and isinstance(value[1], Sequence)
        and not isinstance(value[0], str)
        and not isinstance(value[1], str)
    ):
        return Region(tuple(value[0]), tuple(value[1]))
    raise InvalidRegionError(
        f"cannot interpret {value!r} as a region; pass a Region or a "
        "(lows, highs) pair of coordinate sequences"
    )


def query_overlaps_cell(query: Region, cell: Region) -> bool:
    """True when a closed *query* can contain a data key of the
    half-open *cell*.

    Per dimension, a point ``p`` with ``cell.low <= p < cell.high`` and
    ``query.low <= p <= query.high`` exists iff
    ``query.high >= cell.low`` and ``query.low < cell.high``.  The
    asymmetry matters on shared boundaries: a query ending exactly at a
    cell's low edge still reaches that cell's records, while a query
    starting at a cell's high edge does not.
    """
    return all(
        q_high >= c_low and q_low < c_high
        for q_low, q_high, c_low, c_high in zip(
            query.lows, query.highs, cell.lows, cell.highs
        )
    )


def query_covers_cell(query: Region, cell: Region) -> bool:
    """True when every data key of half-open *cell* matches *query*."""
    return all(
        q_low <= c_low and c_high <= q_high
        for q_low, q_high, c_low, c_high in zip(
            query.lows, query.highs, cell.lows, cell.highs
        )
    )


def cell_resolves_query(cell: Region, query: Region) -> bool:
    """True when *cell* alone holds every record matching *query*.

    Besides nesting, the query's upper face must be strictly inside the
    cell (or on the global boundary), because records sitting exactly on
    a shared upper face belong to the *adjacent* cell.
    """
    for c_low, q_low, q_high, c_high in zip(
        cell.lows, query.lows, query.highs, cell.highs
    ):
        if q_low < c_low:
            return False
        if q_high > c_high:
            return False
        if q_high == c_high and c_high != 1.0:
            return False
    return True


def clip(query: Region, cell: Region) -> Region | None:
    """Intersection of *query* and *cell*, or None when they do not
    overlap (in the mixed closed/half-open sense)."""
    if not query_overlaps_cell(query, cell):
        return None
    lows = tuple(max(q, c) for q, c in zip(query.lows, cell.lows))
    highs = tuple(min(q, c) for q, c in zip(query.highs, cell.highs))
    return Region(lows, highs)


@lru_cache(maxsize=1 << 16)
def region_of_label(label: str, dims: int) -> Region:
    """Return the half-open cell of kd-tree *label*.

    Walks the edge bits below the ordinary root, halving dimension
    ``depth % m`` at each step (the alternating splits of Fig. 1a).  The
    virtual root and the ordinary root both cover the whole space.

    Memoized per label (regions are frozen, so sharing is safe): the
    label is validated on first sight — an :class:`InvalidLabelError`
    is never cached — and repeated geometry of the same label, every
    ``LeafBucket.region`` access and range-query frontier expansion,
    costs one cache hit.  A *new* label costs one :meth:`Region.split`
    off its cached parent instead of a from-scratch root walk.
    """
    check_label(label, dims)
    return _cell_of_bits(label[dims + 1:], dims)


def region_of_bits(bits: str, dims: int) -> Region:
    """Return the cell reached from the whole space by *bits*.

    Bit ``k`` (0-based) halves dimension ``k % m``: ``'0'`` keeps the
    lower half, ``'1'`` the upper half.  Used both for kd-tree labels
    (with the root prefix stripped) and for z-order prefixes in the
    PHT/DST baselines — the two trees share one space partition.
    Memoized like :func:`region_of_label`.
    """
    bad = bits.strip("01")
    if bad:
        raise InvalidLabelError(f"invalid bit {bad[0]!r} in {bits!r}")
    return _cell_of_bits(bits, dims)


@lru_cache(maxsize=1 << 16)
def _cell_of_bits(bits: str, dims: int) -> Region:
    """Memoized cell derivation; recursion makes every prefix's cell a
    cache entry, so a child is one split off its cached parent."""
    if not bits:
        return unit_region(dims)
    lower, upper = _cell_of_bits(bits[:-1], dims).split((len(bits) - 1) % dims)
    return upper if bits[-1] == "1" else lower
