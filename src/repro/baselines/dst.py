"""Distributed Segment Tree (DST) over DHTs.

DST (Zheng et al., IPTPS'06; multi-dimensional variant per the MSR-Asia
TR) superimposes a *full* virtual tree of fixed height ``D`` on the
key space: the node at prefix ``p`` lives at DHT key ``hash(p)``.  A
record is stored at its depth-``D`` leaf cell **and replicated at every
ancestor**, so that any canonical node can answer its subrange with a
single DHT-get — ranges decompose into disjoint canonical nodes and
resolve in O(1) rounds.

Two consequences the paper measures:

* maintenance pays roughly ``D + 1`` DHT operations and record copies
  per insert — an order of magnitude above m-LIGHT/PHT (Fig. 5);
* node **saturation** caps replication: once a node holds
  ``saturation`` records it stops accepting replicas, and queries
  hitting a saturated canonical node must descend to its children
  (extra rounds).  Small ``theta_split`` saturates nodes early, which
  is why DST's data-movement cost *falls* as the threshold shrinks
  (Fig. 5d), and why its latency blows up for large ranges (Fig. 7b):
  big ranges decompose into high, saturated nodes.

Because the virtual height ``D`` exceeds the data's real depth, range
decomposition near the query boundary produces a very large number of
depth-``D`` cells — the paper's explanation for DST's order-of-
magnitude bandwidth in Fig. 7a.

A virtual node's cell is a kd-tree cell, so it keeps its records in
the :class:`~repro.core.bucket.LeafBucket` m-LIGHT would give that cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.config import IndexConfig
from repro.common.geometry import (
    Point,
    Region,
    check_point,
    query_covers_cell,
    query_overlaps_cell,
    region_of_bits,
)
from repro.common.labels import interleave
from repro.core.bucket import LeafBucket
from repro.core.records import Record
from repro.core.results import RangeQueryBuilder
from repro.baselines.interface import DESCEND, TrieIndex, TrieNode
from repro.dht.api import Dht


@dataclass(slots=True)
class DstNode(TrieNode):
    """One virtual-tree node as stored in the DHT.

    An unsaturated node's bucket holds *every* record of its subtree;
    once ``saturated`` flips, the bucket is frozen as a partial set
    that queries must not trust.
    """

    prefix: str
    bucket: LeafBucket
    saturated: bool = False


class DstIndex(TrieIndex):
    """DST with ancestor replication and saturation."""

    namespace = "dst:"

    def __init__(
        self,
        dht: Dht,
        config: IndexConfig | None = None,
        saturation: int | None = None,
    ) -> None:
        super().__init__(dht, config)
        #: Replication cap per internal node; the evaluation ties it to
        #: theta_split so the Fig. 5c/d sweep drives both schemes.
        self._saturation = (
            saturation
            if saturation is not None
            else self._config.split_threshold
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def insert(self, key: Point, value: Any = None) -> None:
        """Store the record on its whole root-to-leaf path.

        Each level costs one DHT operation; unsaturated levels also
        receive a copy of the record (one unit of movement each).
        """
        record = Record.make(key, value, dims=self._dims)
        full = interleave(record.key, self._depth)
        for depth in range(self._depth + 1):
            prefix = full[:depth]
            node = self.dht.get(self._key(prefix))
            if node is None:
                node = DstNode(prefix, self._bucket(prefix, [record]))
                self.dht.put(self._key(prefix), node, records_moved=1)
                continue
            at_leaf = depth == self._depth
            if not at_leaf and (
                node.saturated or node.load >= self._saturation
            ):
                if not node.saturated:
                    node.saturated = True
                    self.dht.rewrite_local(self._key(prefix), node)
                continue
            # The node's cell holds the record by construction (its
            # prefix is the record's own), so the bucket's cell check
            # is skipped: a store append per replica, nothing more.
            node.bucket.store.add(record)
            self.dht.stats.records_moved += 1
            self.dht.rewrite_local(self._key(prefix), node)

    def delete(self, key: Point, value: Any = None) -> bool:
        """Remove one matching record from every level that holds it."""
        point = check_point(tuple(key), self._dims)
        full = interleave(point, self._depth)
        removed_any = False
        for depth in range(self._depth + 1):
            prefix = full[:depth]
            node = self.dht.get(self._key(prefix))
            if node is not None and node.bucket.discard(point, value):
                self.dht.rewrite_local(self._key(prefix), node)
                removed_any = True
        return removed_any

    # ------------------------------------------------------------------
    # Range queries (canonical decomposition, O(1) rounds)
    # ------------------------------------------------------------------

    def _start(self, query: Region) -> list[str]:
        canonical: list[str] = []
        self._decompose(query, "", region_of_bits("", self._dims), canonical)
        return canonical

    def _probed(
        self, prefix: str, node: DstNode | None, builder: RangeQueryBuilder
    ) -> LeafBucket | str | None:
        """A canonical node answers its subrange in one probe, unless
        saturation froze it partial: then the query descends past it
        (one extra round per level of saturation)."""
        if node is None:
            return None  # empty region: nothing stored there
        if node.saturated and len(prefix) < self._depth:
            return DESCEND
        return node.bucket

    def _decompose(
        self, query: Region, prefix: str, cell: Region, out: list[str]
    ) -> None:
        """Minimal disjoint canonical cover of *query*.

        Maximal cells fully inside the query plus boundary cells at the
        virtual depth ``D`` — far finer than the data's real spread,
        hence the bandwidth blow-up the paper reports.  The cell region
        is threaded through the recursion so each level costs one split
        rather than a from-scratch rebuild.
        """
        if not query_overlaps_cell(query, cell):
            return
        if query_covers_cell(query, cell) or len(prefix) >= self._depth:
            out.append(prefix)
            return
        lower, upper = cell.split(len(prefix) % self._dims)
        self._decompose(query, prefix + "0", lower, out)
        self._decompose(query, prefix + "1", upper, out)

    # ------------------------------------------------------------------
    # Oracle access
    # ------------------------------------------------------------------

    def _holds_own(self, node: DstNode) -> bool:
        # Distinct records are the ones stored at depth-D leaf cells.
        return len(node.prefix) == self._depth

    def replica_count(self) -> int:
        """Total stored copies across all levels (replication bill)."""
        return sum(node.load for node in self._nodes())
