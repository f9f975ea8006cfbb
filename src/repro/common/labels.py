"""Label algebra for the space kd-tree (Section 3.2 of the paper).

A *label* is a binary string identifying one node of the space kd-tree:

* the **virtual root** is ``m`` consecutive ``'0'`` characters, where
  ``m`` is the data dimensionality;
* the **ordinary root**, written ``#`` in the paper, is the virtual
  root followed by ``'1'`` (for 2-D data, ``# == "001"``, three bits);
* every other node appends one bit per tree edge below the root —
  ``'0'`` for the lower half of the split, ``'1'`` for the upper half.

The split at tree depth ``d`` (the root is depth 0) halves dimension
``d % m``; this is the alternating space partitioning of Fig. 1a.  The
partitioning is *data independent*, so every peer can reconstruct the
cell of any label locally — the property all distributed algorithms in
the paper rely on.

Labels are plain Python ``str`` values.  They are hashable, cheap, and
directly usable as DHT keys, which keeps the whole stack explicit.

One algebra, validated at the edge
----------------------------------
``str`` is the only label form: every helper below, the naming function
in :mod:`repro.core.naming`, the lookup cursor and the range kernel
take and return strings, and a probe's DHT key is the string itself.
Integers appear in exactly one place, the Morton interleave:
:func:`packed_interleave` / :func:`packed_candidate` spread each
coordinate's expansion bits table-driven and OR-merge them, and
:func:`interleave` / :func:`candidate_string` render that integer with
one ``format`` call.  It is the only implementation, not a twin;
:func:`coordinate_bits` is the per-character oracle the tests compare
it with.

Every label the index handles is a prefix, child or sibling of one it
already holds, so validity is proved once, where a label *enters* the
program, by :func:`check_label`:

* ``LeafBucket(...)`` and ``LeafBucket.from_encoded``
  (:mod:`repro.core.bucket`);
* a bucket header parsed off the wire or out of a journal
  (:mod:`repro.core.codec`);
* the target label of an ``MCAST`` frame (:mod:`repro.mcast.service`);
* :func:`repro.common.geometry.region_of_label`, memoised per label so
  a label is checked on first sight only.

The helpers trust their caller and keep only their O(1) structural
preconditions — the virtual root has no parent, children or split, the
root has no sibling, ``top`` is a proper prefix of ``leaf`` — as length
and prefix compares.  ``tests/test_layering.py`` keeps the call sites
of :func:`check_label` / :func:`is_valid_label` to that list.

Coordinate convention
---------------------
We interleave dimension 0 first (standard Morton order).  The paper's
worked example interleaves its second printed coordinate first; the two
conventions differ only by a relabelling of axes and every theorem holds
under either.  See ``DESIGN.md``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.common.errors import InvalidLabelError, InvalidPointError

#: Number of bits of per-dimension resolution used when converting a
#: float coordinate in [0, 1) to its binary expansion.  Multiplying by a
#: power of two is exact for IEEE-754 doubles, so the expansion is
#: deterministic.  60 bits is far deeper than any index tree we build.
MAX_RESOLUTION_BITS = 60

_SCALE = 1 << MAX_RESOLUTION_BITS


def virtual_root(dims: int) -> str:
    """Return the virtual-root label: ``m`` consecutive ``'0'`` bits."""
    _check_dims(dims)
    return "0" * dims


def root_label(dims: int) -> str:
    """Return the ordinary root label ``#`` (virtual root plus ``'1'``)."""
    _check_dims(dims)
    return "0" * dims + "1"


def is_valid_label(label: str, dims: int) -> bool:
    """Return True when *label* names a node of an ``m``-d space kd-tree.

    Valid labels are the virtual root itself, or any extension of the
    ordinary root by zero or more ``0``/``1`` edge bits.
    """
    if dims < 1 or not label or label.strip("01"):
        return False
    # The first '1' sits right after the m zeros of the virtual root;
    # only the virtual root itself has none.
    first_one = label.find("1")
    return first_one == dims or (first_one < 0 and len(label) == dims)


def check_label(label: str, dims: int) -> None:
    """Raise :class:`InvalidLabelError` unless *label* is a valid
    ``m``-d label.

    Called where a label enters the program (the list in the module
    docstring), not by the helpers below: they run on labels derived
    from checked ones.
    """
    if not isinstance(label, str) or not is_valid_label(label, dims):
        raise InvalidLabelError(
            f"{label!r} is not a valid label for {dims}-dimensional data"
        )


def label_depth(label: str, dims: int) -> int:
    """Return the tree depth of *label*; the ordinary root has depth 0.

    The virtual root has depth -1 by convention (it sits above the
    ordinary root).
    """
    return len(label) - dims - 1


def parent(label: str, dims: int) -> str:
    """Return the parent label (one bit shorter).

    The parent of the ordinary root is the virtual root; the virtual
    root has no parent and asking for one raises
    :class:`InvalidLabelError`.
    """
    if len(label) <= dims:
        raise InvalidLabelError("the virtual root has no parent")
    return label[:-1]


def children(label: str, dims: int) -> tuple[str, str]:
    """Return the two child labels ``(label + '0', label + '1')``.

    The virtual root is special: its only child is the ordinary root,
    and this function rejects it — use :func:`root_label` directly.
    """
    if len(label) <= dims:
        raise InvalidLabelError(
            "the virtual root has a single child; use root_label()"
        )
    return label + "0", label + "1"


def sibling(label: str, dims: int) -> str:
    """Return the sibling label (last edge bit inverted).

    The ordinary root and the virtual root have no sibling.
    """
    if len(label) <= dims + 1:
        raise InvalidLabelError(f"label {label!r} has no sibling")
    last = "1" if label[-1] == "0" else "0"
    return label[:-1] + last


def branch_nodes_between(leaf: str, top: str, dims: int) -> list[str]:
    """Return the *branch nodes* between *leaf* and its ancestor *top*.

    Branch nodes are the siblings of every node on the path from *leaf*
    up to, but excluding, *top* (Section 3.3).  Together with *leaf*
    itself their regions exactly tile the region of *top*, which is what
    the range-query decomposition exploits.  Returned nearest-to-*top*
    first (shallowest first).
    """
    if not leaf.startswith(top) or leaf == top:
        raise InvalidLabelError(
            f"{top!r} is not a proper ancestor of {leaf!r}"
        )
    branches = []
    for end in range(len(top) + 1, len(leaf) + 1):
        branches.append(sibling(leaf[:end], dims))
    return branches


def split_dimension(label: str, dims: int) -> int:
    """Return the dimension halved when *label*'s cell splits.

    The root cell (depth 0) splits dimension 0, its children split
    dimension 1, and so on, cycling through all ``m`` dimensions.
    """
    depth = label_depth(label, dims)
    if depth < 0:
        raise InvalidLabelError("the virtual root does not split the space")
    return depth % dims


def coordinate_bits(coordinate: float, depth: int) -> str:
    """Return the first *depth* bits of the binary expansion of
    *coordinate*, which must lie in ``[0, 1)``.

    ``0.2 -> '0011...'`` and ``0.4 -> '0110...'`` as in the paper's
    lookup example (Section 5).
    """
    if not 0.0 <= coordinate < 1.0:
        raise InvalidPointError(
            f"coordinate {coordinate!r} outside [0, 1)"
        )
    if depth < 0:
        raise InvalidPointError(f"negative bit depth {depth}")
    if depth > MAX_RESOLUTION_BITS:
        raise InvalidPointError(
            f"bit depth {depth} exceeds resolution {MAX_RESOLUTION_BITS}"
        )
    scaled = int(coordinate * _SCALE)
    bits = []
    for position in range(1, depth + 1):
        bits.append("1" if scaled >> (MAX_RESOLUTION_BITS - position) & 1 else "0")
    return "".join(bits)


def interleave(point: Sequence[float], depth: int) -> str:
    """Interleave the binary expansions of all coordinates of *point*.

    Produces *depth* bits total: bit ``k`` (0-based) is bit
    ``k // m + 1`` of coordinate ``k % m``.  Prefixes of the result,
    appended to the root label, enumerate the cells containing *point*
    from the whole space downward.

    The bits are computed as one integer (:func:`packed_interleave`)
    and rendered with one ``format`` call; :func:`coordinate_bits`
    remains the per-character reference the equivalence tests check
    against.
    """
    bits, length = packed_interleave(point, depth)
    if length == 0:
        return ""
    return format(bits, f"0{length}b")


def candidate_string(point: Sequence[float], max_depth: int) -> str:
    """Return the longest candidate label for *point* (Section 5).

    This is the root label followed by ``max_depth`` interleaved bits;
    the leaf bucket covering *point* is labelled by exactly one prefix
    of this string of length at least ``m + 1``.
    """
    bits, length = packed_candidate(point, max_depth)
    return format(bits, f"0{length}b")


# ----------------------------------------------------------------------
# The Morton interleave, on integers
# ----------------------------------------------------------------------

#: A bit-packed label: the label's bits read as a big-endian integer,
#: plus the explicit bit length (leading zeros are significant — the
#: virtual root is all zeros — so the length cannot be recovered from
#: the integer alone).
PackedLabel = tuple[int, int]

#: Morton spread tables, one per dimensionality: ``table[byte]`` is
#: *byte* with ``dims - 1`` zero bits inserted between consecutive
#: bits, so interleaving processes eight bits per table hit instead of
#: one per loop iteration.
_SPREAD_TABLES: dict[int, list[int]] = {}


def _spread_table(dims: int) -> list[int]:
    table = _SPREAD_TABLES.get(dims)
    if table is None:
        table = []
        for byte in range(256):
            spread = 0
            for bit in range(8):
                if byte >> bit & 1:
                    spread |= 1 << (bit * dims)
            table.append(spread)
        _SPREAD_TABLES[dims] = table
    return table


def _spread(value: int, dims: int, table: list[int]) -> int:
    """Insert ``dims - 1`` zeros between consecutive bits of *value*."""
    out = 0
    shift = 0
    while value:
        out |= table[value & 0xFF] << (shift * dims)
        value >>= 8
        shift += 8
    return out


def packed_interleave(point: Sequence[float], depth: int) -> PackedLabel:
    """*depth* Morton bits of *point* as ``(bits, length)``.

    Each coordinate contributes its top ``ceil(depth / m)`` expansion
    bits, spread table-driven to stride ``m`` and OR-merged — no
    per-bit Python loop.
    """
    dims = len(point)
    _check_dims(dims)
    if depth < 0:
        raise InvalidPointError(f"negative bit depth {depth}")
    per_dim = -(-depth // dims)  # ceil division
    if per_dim > MAX_RESOLUTION_BITS:
        raise InvalidPointError(
            f"bit depth {per_dim} exceeds resolution {MAX_RESOLUTION_BITS}"
        )
    table = _spread_table(dims)
    drop = MAX_RESOLUTION_BITS - per_dim
    out = 0
    for position, value in enumerate(point):
        if not 0.0 <= value < 1.0:
            raise InvalidPointError(
                f"coordinate {value!r} outside [0, 1)"
            )
        out |= _spread(int(value * _SCALE) >> drop, dims, table) << (
            dims - 1 - position
        )
    return out >> (per_dim * dims - depth), depth


def packed_candidate(point: Sequence[float], max_depth: int) -> PackedLabel:
    """The root label followed by ``max_depth`` interleaved bits, as
    ``(bits, length)``."""
    dims = len(point)
    bits, depth = packed_interleave(point, max_depth)
    return (1 << depth) | bits, dims + 1 + depth


def _check_dims(dims: int) -> None:
    if dims < 1:
        raise InvalidLabelError(f"dimensionality must be >= 1, got {dims}")
