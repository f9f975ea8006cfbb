"""Naive kd-tree-over-DHT mapping (ablation baseline).

Strips m-LIGHT of its naming function: the bucket of leaf λ is stored
at DHT key λ itself.  Two costs reappear immediately, which is the
point of ablation A1:

* a split must transfer **both** children to fresh keys (no survivor
  stays under the old key), doubling split movement and puts;
* binary search on the candidate set no longer works — a missing key
  cannot distinguish "below a leaf" from "internal node", because
  internal labels hold nothing — so lookups probe candidate prefixes
  linearly from the root, O(depth) instead of O(log D).

A range query is the trie descent from the root: a stored bucket is a
leaf, a missing one an internal node.
"""

from __future__ import annotations

from typing import Any

from repro.common.config import IndexConfig
from repro.common.errors import IndexCorruptionError
from repro.common.geometry import Point, check_point
from repro.common.labels import interleave
from repro.core.bucket import LeafBucket
from repro.core.records import Record
from repro.core.results import RangeQueryBuilder
from repro.baselines.interface import DESCEND, TrieIndex
from repro.dht.api import Dht

_PREFIX = "naive:"


class NaiveTreeIndex(TrieIndex):
    """Space kd-tree with identity label-to-key mapping."""

    def __init__(self, dht: Dht, config: IndexConfig | None = None) -> None:
        super().__init__(dht, config)
        #: A leaf's key is its kd-tree label, root label included.
        self.namespace = _PREFIX + self._root
        if self.dht.peek(self._key("")) is None:
            self.dht.put(self._key(""), self._bucket(""))

    def lookup(self, point: Point) -> tuple[LeafBucket, int]:
        """Linear probing of candidate labels from the root downward."""
        point = check_point(point, self._dims)
        full = interleave(point, self._depth)
        for length in range(len(full) + 1):
            bucket = self.dht.get(self._key(full[:length]))
            if bucket is not None:
                return bucket, length + 1
        raise IndexCorruptionError(
            f"naive lookup of {point} found no leaf on its path"
        )

    def insert(self, key: Point, value: Any = None) -> None:
        record = Record.make(key, value, dims=self._dims)
        bucket, _ = self.lookup(record.key)
        bucket.add(record)
        self.dht.stats.records_moved += 1
        self.dht.rewrite_local(_PREFIX + bucket.label, bucket)
        plan = self._plan(bucket)
        if plan is None:
            return
        # Without the naming bijection there is no surviving child:
        # every plan leaf is a routed put and the origin key is freed.
        self.dht.remove(_PREFIX + bucket.label)
        for label, records in plan.leaves:
            self.dht.put(
                _PREFIX + label,
                LeafBucket(label, self._dims, records, self._config.store),
                records_moved=len(records),
            )

    def delete(self, key: Point, value: Any = None) -> bool:
        point = check_point(tuple(key), self._dims)
        bucket, _ = self.lookup(point)
        if not bucket.discard(point, value):
            return False
        self.dht.rewrite_local(_PREFIX + bucket.label, bucket)
        return True

    def _probed(
        self, prefix: str, node: LeafBucket | None, builder: RangeQueryBuilder
    ) -> LeafBucket | str:
        return DESCEND if node is None else node
