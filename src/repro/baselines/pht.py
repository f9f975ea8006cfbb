"""Prefix Hash Tree (PHT) over a z-order linearisation.

PHT is the first over-DHT index (Section 2.1): a binary trie whose
node at prefix ``p`` lives at DHT key ``hash(p)``.  Internal nodes hold
no data — they are routing markers only — so range processing must
always descend to the leaves, the inefficiency m-LIGHT's filled
internal nodes remove.  Leaves form a doubly-linked list in curve
order, maintained on every split and merge (extra pointer updates are
part of PHT's maintenance bill).

Lookups binary-search the prefix length exactly as in the PHT paper:
a missing node bounds the leaf from above, an internal node bounds it
from below, so ``O(log D)`` DHT-gets suffice.

Multi-dimensional keys are linearised by the z-order curve
(:func:`repro.common.labels.interleave`); the trie's cells coincide with the
kd-tree's space partition, which makes the comparison with m-LIGHT
apples-to-apples: a node keeps its cell's records in the
:class:`~repro.core.bucket.LeafBucket` m-LIGHT would give that cell
(an internal marker's is empty), and a split is m-LIGHT's threshold
plan (:class:`~repro.core.split.ThresholdSplit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.config import IndexConfig
from repro.common.errors import IndexCorruptionError
from repro.common.geometry import (
    Point,
    Region,
    check_point,
    query_lca_bits,
    region_of_bits,
)
from repro.common.labels import interleave
from repro.core.bucket import LeafBucket
from repro.core.records import Record
from repro.core.results import RangeQueryBuilder
from repro.baselines.interface import DESCEND, TrieIndex, TrieNode
from repro.dht.api import Dht


@dataclass(slots=True)
class PhtNode(TrieNode):
    """One trie node as stored in the DHT: a leaf's records, or an
    internal marker's empty bucket, and the leaf-list pointers."""

    prefix: str
    is_leaf: bool
    bucket: LeafBucket
    prev_leaf: str | None = None
    next_leaf: str | None = None


class PhtIndex(TrieIndex):
    """PHT with threshold split/merge and linked leaves."""

    namespace = "pht:"

    def __init__(self, dht: Dht, config: IndexConfig | None = None) -> None:
        super().__init__(dht, config)
        if self.dht.peek(self._key("")) is None:
            self.dht.put(self._key(""), PhtNode("", True, self._bucket("")))

    # ------------------------------------------------------------------
    # Lookup (binary search on prefix length)
    # ------------------------------------------------------------------

    def lookup(self, point: Point) -> tuple[PhtNode, int]:
        """Return (leaf node, probes) for the leaf covering *point*."""
        point = check_point(point, self._dims)
        full = interleave(point, self._depth)
        low, high = 0, self._depth
        probes = 0
        while low <= high:
            mid = (low + high) // 2
            probes += 1
            node = self.dht.get(self._key(full[:mid]))
            if node is None:
                high = mid - 1
            elif node.is_leaf:
                return node, probes
            else:
                low = mid + 1
        raise IndexCorruptionError(
            f"PHT lookup of {point} found no leaf; trie is inconsistent"
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, key: Point, value: Any = None) -> None:
        record = Record.make(key, value, dims=self._dims)
        leaf, _ = self.lookup(record.key)
        leaf.bucket.add(record)
        self.dht.stats.records_moved += 1
        self.dht.rewrite_local(self._key(leaf.prefix), leaf)
        self._split(leaf)

    def delete(self, key: Point, value: Any = None) -> bool:
        point = check_point(tuple(key), self._dims)
        leaf, _ = self.lookup(point)
        if not leaf.bucket.discard(point, value):
            return False
        self.dht.rewrite_local(self._key(leaf.prefix), leaf)
        self._maybe_merge(leaf)
        return True

    def _split(self, leaf: PhtNode) -> None:
        """Replace an overfull leaf by the leaves of its threshold plan.

        Unlike m-LIGHT, *every* new leaf changes DHT key, so all of the
        old leaf's records move; the old prefix and any intermediate
        prefixes become routing-only internal nodes; and the leaf
        linked list is re-stitched around the new leaves.
        """
        plan = self._plan(leaf.bucket)
        if plan is None:
            return  # not overfull, or the depth cap keeps it whole
        cut = len(self._root)
        produced = [(label[cut:], records) for label, records in plan.leaves]
        chain = [prefix for prefix, _ in produced]  # curve order
        old_prev, old_next = leaf.prev_leaf, leaf.next_leaf
        for position, (prefix, records) in enumerate(produced):
            node = PhtNode(
                prefix,
                True,
                self._bucket(prefix, records),
                prev_leaf=chain[position - 1] if position > 0 else old_prev,
                next_leaf=(
                    chain[position + 1]
                    if position + 1 < len(chain)
                    else old_next
                ),
            )
            self.dht.put(self._key(prefix), node, records_moved=len(records))
        # The plan's inner cells become internal markers, in pre-order:
        # the origin on the same key (local rewrite), deeper ones by
        # routed puts.
        origin = leaf.prefix
        internal = sorted({
            prefix[:end]
            for prefix in chain
            for end in range(len(origin), len(prefix))
        })
        for prefix in internal:
            marker = PhtNode(prefix, False, self._bucket(prefix))
            if prefix == origin:
                self.dht.rewrite_local(self._key(prefix), marker)
            else:
                self.dht.put(self._key(prefix), marker)
        if old_prev is not None:
            self._pointer_update(old_prev, next_leaf=chain[0])
        if old_next is not None:
            self._pointer_update(old_next, prev_leaf=chain[-1])

    def _maybe_merge(self, leaf: PhtNode) -> None:
        """Collapse sibling leaf pairs while the threshold kernel says
        merge.

        Both children's records move to the parent's key, and the leaf
        list is re-stitched — two removes, one put, two pointer updates
        per level (versus m-LIGHT's single transfer).
        """
        while leaf.prefix:
            prefix = leaf.prefix
            sibling_prefix = prefix[:-1] + ("1" if prefix[-1] == "0" else "0")
            sibling = self.dht.get(self._key(sibling_prefix))
            if sibling is None or not sibling.is_leaf:
                return
            if not self._strategy.should_merge(leaf.load, sibling.load):
                return
            first, second = (
                (leaf, sibling) if prefix < sibling_prefix else (sibling, leaf)
            )
            merged = PhtNode(
                prefix[:-1],
                True,
                self._bucket(
                    prefix[:-1], first.bucket.records + second.bucket.records
                ),
                prev_leaf=first.prev_leaf,
                next_leaf=second.next_leaf,
            )
            self.dht.remove(self._key(leaf.prefix), records_moved=leaf.load)
            self.dht.remove(
                self._key(sibling_prefix), records_moved=sibling.load
            )
            self.dht.put(self._key(merged.prefix), merged, records_moved=0)
            if merged.prev_leaf is not None:
                self._pointer_update(merged.prev_leaf, next_leaf=merged.prefix)
            if merged.next_leaf is not None:
                self._pointer_update(merged.next_leaf, prev_leaf=merged.prefix)
            leaf = merged

    def _pointer_update(self, prefix: str, **fields: str | None) -> None:
        """One routed message telling a leaf to update a list pointer."""
        self.dht.lookup(self._key(prefix))
        node = self.dht.peek(self._key(prefix))
        if node is None:
            raise IndexCorruptionError(
                f"PHT leaf-list pointer to missing node {prefix!r}"
            )
        for name, value in fields.items():
            setattr(node, name, value)
        self.dht.rewrite_local(self._key(prefix), node)

    # ------------------------------------------------------------------
    # Range queries: the descent from the query's LCA
    # ------------------------------------------------------------------

    def _start(self, query: Region) -> list[str]:
        # The trie's cells are the kd-tree's, so its LCA is m-LIGHT's
        # below the root label: the same closed-form kernel.
        bits, length = query_lca_bits(query, self._depth)
        return [format(bits, f"0{length}b") if length else ""]

    def _probed(
        self, prefix: str, node: PhtNode | None, builder: RangeQueryBuilder
    ) -> LeafBucket | str:
        """A leaf's records, or :data:`DESCEND` past a routing-only
        marker — which is why PHT's bandwidth exceeds m-LIGHT's."""
        if node is None:
            # Only possible at the LCA probe: the covering leaf is an
            # ancestor — find it by a point lookup of the cell's low
            # corner (in [0, 1), unlike a face), a chain of probes from
            # this round on.
            node, probes = self.lookup(region_of_bits(prefix, self._dims).lows)
            builder.lookups += probes
            builder.rounds = max(builder.rounds, builder.waves + probes)
        return node.bucket if node.is_leaf else DESCEND

    # ------------------------------------------------------------------
    # Oracle access
    # ------------------------------------------------------------------

    def _holds_own(self, node: PhtNode) -> bool:
        return node.is_leaf

    def leaves(self):
        """Iterate every leaf node (zero metered cost)."""
        return filter(self._holds_own, self._nodes())

    def tree_size(self) -> int:
        """Number of trie nodes, internal markers included."""
        return sum(1 for _ in self._nodes())
