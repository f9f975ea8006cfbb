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

from repro.common.errors import InvalidLabelError
from repro.common.labels import PackedLabel


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


def _require_leaf(label: str, dims: int) -> None:
    if len(label) <= dims:
        raise InvalidLabelError(
            "the virtual root is an internal node, never a leaf"
        )
