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

``Region(...)`` and :func:`as_region` validate, because that is where
user input enters.  A box derived from valid ones — a half
(:meth:`Region.split`), an intersection (:func:`clip`), a branch cell
of the range decomposition — is valid by construction, so it is built
by :func:`trusted_region`: ``object.__new__`` plus the two slot
setters, without the frozen dataclass's ``__init__`` and
``__post_init__`` (the same construction as
:func:`repro.core.records.build_records`).
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
from repro.common.labels import (
    MAX_RESOLUTION_BITS,
    PackedLabel,
    check_label,
    packed_interleave,
)

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
            trusted_region(self.lows, lower_highs),
            trusted_region(upper_lows, self.highs),
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


_new = object.__new__
_set_lows = Region.lows.__set__
_set_highs = Region.highs.__set__


def trusted_region(lows: tuple[float, ...], highs: tuple[float, ...]) -> Region:
    """A :class:`Region` of bounds known valid (derived from valid
    boxes), built without re-validation: ``object.__new__`` plus the
    two slots written through their descriptors.  The class is
    unchanged, so equality, hashing and pickling are any Region's."""
    region = _new(Region)
    _set_lows(region, lows)
    _set_highs(region, highs)
    return region


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


def clip(query: Region, cell: Region) -> Region | None:
    """Intersection of *query* and *cell*, or None when they do not
    overlap (in the mixed closed/half-open sense).  The intersection of
    two valid boxes is valid, so it is a :func:`trusted_region`."""
    if not query_overlaps_cell(query, cell):
        return None
    return trusted_region(
        tuple(map(max, query.lows, cell.lows)),
        tuple(map(min, query.highs, cell.highs)),
    )


#: The fixed-point cell of the global upper face 1.0: the all-ones
#: cell at every resolution, the one cell a query may close on its
#: upper face.
_TOP_FACE = (1 << MAX_RESOLUTION_BITS) - 1
_SCALE = float(1 << MAX_RESOLUTION_BITS)


def query_lca_bits(query: Region, max_depth: int) -> PackedLabel:
    """The edge bits, below the root, of the deepest cell that resolves
    *query* — holds every record it can match — at most *max_depth* of
    them, as ``(bits, length)``.

    A cell resolves a query when, per dimension, the query's low face
    is inside the half-open cell and its high face is strictly below
    the cell's upper face, or on it where that face is the global
    boundary 1.0: a record on a shared upper face belongs to the
    adjacent cell.

    Closed form, no descent: a cell at depth ``t`` halves dimension
    ``d`` ``ceil((t - d) / m)`` times, and it resolves the query iff,
    in every dimension, the low and high faces share that many leading
    bits — faces in fixed point (``int(x * 2**60)``), the global face
    1.0 as the all-ones cell.  With ``c_d`` shared bits in dimension
    ``d`` the deepest such ``t`` is ``min_d(c_d * m + d)``, and the
    cell's bits are the low corner's Morton code to that length: the
    longest common prefix of the two corners' codes.  The m-LIGHT LCA
    (:func:`repro.core.rangequery.compute_lca`) is these bits below the
    root label, PHT's trie entry point (:mod:`repro.baselines.pht`)
    the bits alone.
    """
    dims = len(query.lows)
    depth = max_depth
    for dim, (low, high) in enumerate(zip(query.lows, query.highs)):
        low = _TOP_FACE if low == 1.0 else int(low * _SCALE)
        high = _TOP_FACE if high == 1.0 else int(high * _SCALE)
        shared = MAX_RESOLUTION_BITS - (low ^ high).bit_length()
        if shared * dims + dim < depth:
            depth = shared * dims + dim
    if 1.0 not in query.lows:
        return packed_interleave(query.lows, depth)
    # A low face on the global face 1.0 (its high face is 1.0 too) lies
    # in the all-ones cell: interleave 0.0 there, then set its bits.
    bits, _ = packed_interleave(
        [0.0 if low == 1.0 else low for low in query.lows], depth
    )
    for dim, low in enumerate(query.lows):
        if low == 1.0:
            for position in range(dim, depth, dims):
                bits |= 1 << (depth - 1 - position)
    return bits, depth


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
