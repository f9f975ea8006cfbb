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
(an internal marker's is empty), and a split halves them with
m-LIGHT's :func:`~repro.core.split.partition_records`.
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
    query_overlaps_cell,
    region_of_bits,
)
from repro.common.labels import interleave
from repro.core.bucket import LeafBucket
from repro.core.records import Record
from repro.core.results import RangeQueryBuilder, RangeQueryResult
from repro.core.split import partition_records
from repro.baselines.interface import TrieIndex, TrieNode
from repro.dht.api import Dht

_PREFIX = "pht:"


def _key(prefix: str) -> str:
    return _PREFIX + prefix


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

    def __init__(self, dht: Dht, config: IndexConfig | None = None) -> None:
        super().__init__(dht, config)
        if self.dht.peek(_key("")) is None:
            self.dht.put(_key(""), PhtNode("", True, self._bucket("")))

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
            node = self.dht.get(_key(full[:mid]))
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
        self.dht.rewrite_local(_key(leaf.prefix), leaf)
        if leaf.load > self._config.split_threshold:
            self._split(leaf)

    def delete(self, key: Point, value: Any = None) -> bool:
        point = check_point(tuple(key), self._dims)
        leaf, _ = self.lookup(point)
        if not leaf.bucket.discard(point, value):
            return False
        self.dht.rewrite_local(_key(leaf.prefix), leaf)
        self._maybe_merge(leaf)
        return True

    def _split(self, leaf: PhtNode) -> None:
        """Replace an overfull leaf by a subtree of small-enough leaves.

        Unlike m-LIGHT, *every* new leaf changes DHT key, so all of the
        old leaf's records move; the old prefix and any intermediate
        prefixes become routing-only internal nodes; and the leaf
        linked list is re-stitched around the new leaves.
        """
        origin = leaf.prefix
        produced = []
        internal: list[str] = []
        stack = [(origin, leaf.bucket.store.rows_or_records())]
        while stack:
            prefix, records = stack.pop()
            if (
                len(records) <= self._config.split_threshold
                or len(prefix) >= self._depth
            ):
                produced.append((prefix, records))
                continue
            internal.append(prefix)
            lower, upper = partition_records(
                self._root + prefix, self._dims, records
            )
            stack.append((prefix + "1", upper))
            stack.append((prefix + "0", lower))
        if not internal:
            return  # depth cap: the leaf stays overfull
        produced.sort(key=lambda pair: pair[0])  # curve order

        old_prev, old_next = leaf.prev_leaf, leaf.next_leaf
        chain = [prefix for prefix, _ in produced]
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
            self.dht.put(_key(prefix), node, records_moved=len(records))
        # The origin becomes an internal marker on the same key (local
        # rewrite); deeper internal markers are routed puts.
        for prefix in internal:
            marker = PhtNode(prefix, False, self._bucket(prefix))
            if prefix == origin:
                self.dht.rewrite_local(_key(prefix), marker)
            else:
                self.dht.put(_key(prefix), marker)
        if old_prev is not None:
            self._pointer_update(old_prev, next_leaf=chain[0])
        if old_next is not None:
            self._pointer_update(old_next, prev_leaf=chain[-1])

    def _maybe_merge(self, leaf: PhtNode) -> None:
        """Collapse sibling leaf pairs while under the merge threshold.

        Both children's records move to the parent's key, and the leaf
        list is re-stitched — two removes, one put, two pointer updates
        per level (versus m-LIGHT's single transfer).
        """
        while leaf.prefix:
            prefix = leaf.prefix
            sibling_prefix = prefix[:-1] + ("1" if prefix[-1] == "0" else "0")
            sibling = self.dht.get(_key(sibling_prefix))
            if sibling is None or not sibling.is_leaf:
                return
            if (
                leaf.load + sibling.load
                >= self._config.merge_threshold
            ):
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
            self.dht.remove(_key(leaf.prefix), records_moved=leaf.load)
            self.dht.remove(_key(sibling_prefix), records_moved=sibling.load)
            self.dht.put(
                _key(merged.prefix), merged, records_moved=0
            )
            if merged.prev_leaf is not None:
                self._pointer_update(merged.prev_leaf, next_leaf=merged.prefix)
            if merged.next_leaf is not None:
                self._pointer_update(merged.next_leaf, prev_leaf=merged.prefix)
            leaf = merged

    def _pointer_update(self, prefix: str, **fields: str | None) -> None:
        """One routed message telling a leaf to update a list pointer."""
        self.dht.lookup(_key(prefix))
        node = self.dht.peek(_key(prefix))
        if node is None:
            raise IndexCorruptionError(
                f"PHT leaf-list pointer to missing node {prefix!r}"
            )
        for name, value in fields.items():
            setattr(node, name, value)
        self.dht.rewrite_local(_key(prefix), node)

    # ------------------------------------------------------------------
    # Range queries (trie descent)
    # ------------------------------------------------------------------

    def range_query(self, query: Region) -> RangeQueryResult:
        """Descend the trie from the query's LCA to every overlapping
        leaf.  Internal probes return no data (PHT's routing-only
        internal nodes), which is exactly why its bandwidth exceeds
        m-LIGHT's."""
        builder = RangeQueryBuilder()
        # The trie's cells are the kd-tree's, so its LCA is m-LIGHT's
        # below the root label: the same closed-form kernel.
        bits, length = query_lca_bits(query, self._depth)
        frontier = [format(bits, f"0{length}b") if length else ""]
        round_number = 0
        while frontier:
            round_number += 1
            builder.rounds = max(builder.rounds, round_number)
            next_frontier: list[str] = []
            for prefix in frontier:
                builder.lookups += 1
                node = self.dht.get(_key(prefix))
                if node is None:
                    # Only possible at the LCA probe: the covering leaf
                    # is an ancestor — find it by a point lookup of the
                    # cell's low corner (in [0, 1), unlike a face).
                    leaf, probes = self.lookup(
                        region_of_bits(prefix, self._dims).lows
                    )
                    builder.lookups += probes
                    builder.rounds = max(
                        builder.rounds, round_number + probes
                    )
                    self._collect(leaf, query, builder)
                    continue
                if node.is_leaf:
                    self._collect(node, query, builder)
                    continue
                for child in (prefix + "0", prefix + "1"):
                    if query_overlaps_cell(
                        query, region_of_bits(child, self._dims)
                    ):
                        next_frontier.append(child)
            frontier = next_frontier
        return builder.build()

    def _collect(
        self, leaf: PhtNode, query: Region, builder: RangeQueryBuilder
    ) -> None:
        if leaf.prefix in builder.visited_leaves:
            return
        builder.collect(
            leaf.prefix,
            leaf.bucket.matching(query),
        )

    # ------------------------------------------------------------------
    # Oracle access
    # ------------------------------------------------------------------

    def leaves(self):
        """Iterate every leaf node (zero metered cost)."""
        for key, value in self.dht.items():
            if key.startswith(_PREFIX) and isinstance(value, PhtNode):
                if value.is_leaf:
                    yield value

    def total_records(self) -> int:
        return sum(leaf.load for leaf in self.leaves())

    def tree_size(self) -> int:
        """Number of trie nodes, internal markers included."""
        return sum(
            1
            for key, value in self.dht.items()
            if key.startswith(_PREFIX) and isinstance(value, PhtNode)
        )
