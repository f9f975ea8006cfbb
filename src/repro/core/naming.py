"""The m-dimensional naming function ``fmd`` (Section 3.4).

``fmd`` maps every *leaf* label of a space kd-tree to a distinct
*internal-node* label — a bijection (Theorems 2/4) — and the leaf
bucket of λ is stored at DHT key ``fmd(λ)``.  The function's recursive
definition strips the last bit while it equals the bit ``m`` positions
earlier:

    fmd(b1 … b_{i-m} … b_i) = fmd(b1 … b_{i-1})   if b_{i-m} == b_i
                            = b1 … b_{i-1}         otherwise

Intuitively (for 2-D) this walks up from the leaf past every ancestor
aligned with it in quadrant position and stops at the first one that is
not.  The closed form implemented here scans once from the end; the
literal recursion is kept as :func:`naming_function_recursive` and the
test suite checks the two agree on random labels.

Worked examples from the paper (2-D, ``# == "001"``)::

    fmd(#0101111) == #0101
    fmd(#0011111) == #001
    fmd(#101111)  == #101
    fmd(#)        == 00        (the virtual root)
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from repro.common.errors import IndexCorruptionError, InvalidLabelError
from repro.common.labels import PackedLabel, parent


def naming_function(label: str, dims: int) -> str:
    """Closed-form ``fmd``: name of the leaf labelled *label*.

    Finds the largest index ``j`` with ``b_{j-m} != b_j`` and returns
    the prefix of length ``j - 1``.  Such a ``j`` always exists for a
    valid non-virtual-root label because the ordinary root ends in
    ``'1'`` while the virtual-root prefix is all ``'0'``; the virtual
    root itself, an internal node, has none and is rejected.

    The backward scan terminates after ~2 characters in expectation
    (each step survives only when the bit ``m`` back agrees).  *label*
    is trusted to be valid (see :mod:`repro.common.labels`).
    """
    # 1-indexed positions j in [dims+1, len]; scan from the end for the
    # last disagreement between b_j and b_{j-m}.
    for j in range(len(label), dims, -1):
        if label[j - 1] != label[j - 1 - dims]:
            return label[: j - 1]
    raise InvalidLabelError(
        f"no disagreement found in {label!r}; label is malformed"
    )


def packed_naming_function(packed: PackedLabel, dims: int) -> PackedLabel:
    """``fmd`` on a ``(bits, length)`` label.

    No caller under ``src/``: ``perf/spans.py`` times it for the
    ``common.labels.naming_us`` kernel row, and ROADMAP item 1(a)
    re-points that row at :func:`naming_function` and deletes this.

    Bit ``p`` (LSB-numbered) of ``bits ^ (bits >> m)`` is set exactly
    when character ``len - 1 - p`` disagrees with the one ``m`` places
    before it, so the lowest set bit inside the window of positions
    that have an ``m``-back partner locates the largest disagreeing
    ``j``; the name is the prefix ending just before it.
    """
    bits, length = packed
    window = (bits ^ (bits >> dims)) & ((1 << (length - dims)) - 1)
    if not window:
        raise InvalidLabelError(
            f"no disagreement found in "
            f"{format(bits, f'0{length}b')!r}; label is malformed"
        )
    drop = (window & -window).bit_length()
    return bits >> drop, length - drop


def naming_function_recursive(label: str, dims: int) -> str:
    """Literal transcription of Definition 2 (test oracle)."""
    _require_leaf(label, dims)
    if label[-1] == label[-1 - dims]:
        return naming_function_recursive(label[:-1], dims)
    return label[:-1]


def name_run_end(candidate: str, name_length: int, dims: int) -> int:
    """Largest prefix length of *candidate* still named to its
    ``name_length``-long prefix.

    The set of prefix lengths ``L`` with
    ``fmd(candidate[:L]) == candidate[:name_length]`` is the contiguous
    run ``[name_length + 1, M]``: extending past the first post-name bit
    keeps the name exactly while each appended bit equals the bit ``m``
    back.  The binary-search lookup (Section 5) uses this to discard a
    whole run of candidates after one probe — the paper's observation
    that probing ``#101`` "has also examined candidate label ``#1011``".
    """
    if name_length < dims or name_length >= len(candidate):
        raise InvalidLabelError(
            f"name length {name_length} out of range for candidate of "
            f"length {len(candidate)}"
        )
    end = name_length + 1
    while end + 1 <= len(candidate) and candidate[end - dims] == candidate[end]:
        end += 1
    return end


def survivor_child(label: str, dims: int) -> str:
    """The child of splitting leaf *label* that keeps the parent's name.

    Theorem 5 (incremental split): of the children ``label+'0'`` and
    ``label+'1'``, exactly one has ``fmd(child) == fmd(label)`` — the
    one whose new last bit equals the bit ``m`` positions before it —
    and it therefore stays on the same peer (indeed under the same DHT
    key).  The other child is named ``label`` itself and moves.
    """
    _require_leaf(label, dims)
    surviving_bit = label[len(label) - dims]
    return label + surviving_bit


def moved_child(label: str, dims: int) -> str:
    """The child of splitting leaf *label* that is named ``label`` and
    must be transferred across the DHT (Theorem 5's other half)."""
    _require_leaf(label, dims)
    moved_bit = "1" if label[len(label) - dims] == "0" else "0"
    return label + moved_bit


class SplitHomes(NamedTuple):
    """Theorem 5 applied to one split: who stays, who moves where.

    ``survivor`` is the one new leaf named ``name == fmd(origin)``: it
    replaces the origin under the same key.  ``moved`` pairs every
    other new leaf with the name it is routed to.  ``dead`` is the
    origin, ``born`` every new leaf; all three keep the plan's order.
    """

    name: str
    survivor: str
    moved: tuple[tuple[str, str], ...]
    dead: tuple[str, ...]
    born: tuple[str, ...]


def split_homes(
    origin: str, leaf_labels: Iterable[str], dims: int
) -> SplitHomes:
    """Place the leaves that replace leaf *origin* (Theorem 5).

    *leaf_labels* is the leaf set of a subtree rooted at *origin* — one
    level under threshold splitting, possibly deeper under Algorithm 1.
    Exactly one of them lies on the chain of surviving children below
    *origin* and so keeps its name; any other count means the labels do
    not tile *origin* and raises :class:`IndexCorruptionError`.
    """
    name = naming_function(origin, dims)
    born = tuple(leaf_labels)
    homes = [(label, naming_function(label, dims)) for label in born]
    survivors = [label for label, home in homes if home == name]
    if len(survivors) != 1:
        raise IndexCorruptionError(
            f"{len(survivors)} plan leaves keep the name {name!r} of "
            f"{origin!r}; the bijection is broken"
        )
    moved = tuple(pair for pair in homes if pair[1] != name)
    return SplitHomes(name, survivors[0], moved, (origin,), born)


class MergeHomes(NamedTuple):
    """Theorem 5 read backwards: where a sibling pair and the leaf they
    merge into live.

    ``survivor`` sits under ``name == fmd(parent)``, the key the merged
    leaf keeps; ``moved`` sits under the key named ``parent`` itself,
    which the merge removes — exactly one bucket transferred.  For the
    caller holding *child*: its ``sibling`` is under ``sibling_name``,
    and ``child_is_moved`` says which of the two transfers.  ``dead``
    is ``(child, sibling)``, ``born`` the parent.
    """

    parent: str
    name: str
    survivor: str
    moved: str
    sibling: str
    sibling_name: str
    child_is_moved: bool
    dead: tuple[str, str]
    born: tuple[str]


def merge_homes(child: str, dims: int) -> MergeHomes:
    """Place leaf *child*, its sibling and the parent they would merge
    into; the ordinary root has no sibling and is rejected."""
    above = parent(child, dims)
    name = naming_function(above, dims)
    survivor = survivor_child(above, dims)
    moved = moved_child(above, dims)
    if child == moved:
        sibling, sibling_name = survivor, name
    else:
        sibling, sibling_name = moved, above
    return MergeHomes(
        above, name, survivor, moved, sibling, sibling_name,
        child == moved, (child, sibling), (above,),
    )


def _require_leaf(label: str, dims: int) -> None:
    if len(label) <= dims:
        raise InvalidLabelError(
            "the virtual root is an internal node, never a leaf"
        )
