"""The one driver of the three baselines: PHT, DST and the naive
kd-tree mapping are tries over a DHT.

In all three the node at bit prefix ``p`` is a kd-tree cell
(:func:`~repro.common.geometry.region_of_bits` halves the same
dimensions in the same order), stored at DHT key ``namespace + p``, and
it keeps its records in the :class:`~repro.core.bucket.LeafBucket` of
that cell, labelled ``root_label(dims) + p``: the record store, the
codec and the byte model are m-LIGHT's.

:class:`TrieIndex` holds what the schemes share: the one
level-synchronous range descent (each trie level one round of the
query's :class:`~repro.core.results.RangeQueryBuilder`, each probe one
metered ``dht.get``, each leaf collected once), m-LIGHT's
:class:`~repro.core.split.ThresholdSplit` kernel for the split and
merge decisions, and the oracle walk over the stored nodes.  A scheme
says only where a descent starts (:meth:`TrieIndex._start`) and what a
probed node means (:meth:`TrieIndex._probed`).  All three report costs
through the shared :class:`~repro.dht.api.DhtStats` of their DHT, like
m-LIGHT, so every figure runner is index-agnostic.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro.common.config import IndexConfig
from repro.common.geometry import Region, query_overlaps_cell, region_of_bits
from repro.common.labels import root_label
from repro.core.bucket import LeafBucket
from repro.core.codec import encoded_bucket_size
from repro.core.results import RangeQueryBuilder, RangeQueryResult
from repro.core.split import SplitPlan, ThresholdSplit
from repro.dht.api import Dht
from repro.net.message import WireSized

#: What :meth:`TrieIndex._probed` answers for a node whose cell the
#: descent must refine: its children overlapping the query are probed
#: in the next round.
DESCEND = "descend"


@dataclass(slots=True)
class TrieNode(WireSized):
    """What PHT's and DST's stored nodes share: the records of their
    cell in one :class:`~repro.core.bucket.LeafBucket`, priced on the
    wire at that bucket's codec size and pickled as its codec bytes.
    Subclasses declare ``prefix`` and ``bucket`` (and whatever else
    their scheme stores)."""

    @property
    def load(self) -> int:
        return self.bucket.load

    def encoded_wire_size(self) -> int:
        return encoded_bucket_size(self.bucket)


class TrieIndex:
    """A binary trie over the kd-tree's cells (depth at most
    ``config.max_depth``) layered over the generic DHT facade."""

    #: The DHT key prefix of the scheme's nodes.
    namespace: str

    def __init__(self, dht: Dht, config: IndexConfig | None = None) -> None:
        self.dht = dht
        self._config = config if config is not None else IndexConfig()
        self._dims = self._config.dims
        self._depth = self._config.max_depth
        self._root = root_label(self._dims)
        self._strategy = ThresholdSplit(
            self._config.split_threshold, self._config.merge_threshold
        )

    def _key(self, prefix: str) -> str:
        return self.namespace + prefix

    def _bucket(self, prefix: str, records=None) -> LeafBucket:
        """The bucket of trie cell *prefix*, holding *records* (a record
        sequence or :class:`~repro.core.store.Rows`) in a store of the
        configured kind."""
        return LeafBucket(
            self._root + prefix, self._dims, records, self._config.store
        )

    def _plan(self, bucket: LeafBucket) -> SplitPlan | None:
        """m-LIGHT's threshold split of an overfull *bucket*: the leaves
        (labels and records) that replace it, or None to keep it."""
        return self._strategy.plan_split(
            bucket.label, bucket.store.rows_or_records(), self._dims,
            self._depth,
        )

    # ------------------------------------------------------------------
    # Range queries: one level-synchronous descent
    # ------------------------------------------------------------------

    def range_query(self, query: Region) -> RangeQueryResult:
        """Every record matching the closed region *query*.

        The descent probes its frontier one trie level per round and
        asks the scheme what each probed node means: a bucket to
        collect, :data:`DESCEND` to its children overlapping the query,
        or ``None`` for nothing stored there."""
        builder = RangeQueryBuilder()
        frontier = self._start(query)
        while frontier:
            builder.open_round()
            below: list[str] = []
            for prefix in frontier:
                builder.lookups += 1
                found = self._probed(
                    prefix, self.dht.get(self._key(prefix)), builder
                )
                if found is DESCEND:
                    for child in (prefix + "0", prefix + "1"):
                        if query_overlaps_cell(
                            query, region_of_bits(child, self._dims)
                        ):
                            below.append(child)
                elif found is not None:
                    builder.collect(found.label, found.matching(query))
            frontier = below
        return builder.build()

    def _start(self, query: Region) -> list[str]:
        """The prefixes the descent probes first: the root."""
        return [""]

    def _probed(
        self, prefix: str, node: Any, builder: RangeQueryBuilder
    ) -> LeafBucket | str | None:
        """What the node probed at *prefix* (``None`` when absent)
        means to the descent: the bucket to collect, :data:`DESCEND`
        or ``None``.  A scheme that spends further probes to answer
        books them on *builder*."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Oracle access (zero metered cost)
    # ------------------------------------------------------------------

    def _nodes(self) -> Iterator[Any]:
        """Every node the scheme stores."""
        for key, value in self.dht.items():
            if key.startswith(self.namespace):
                yield value

    def _holds_own(self, node: Any) -> bool:
        """True when *node*'s records are counted once by
        :meth:`total_records` (not replicas of records held below)."""
        return True

    def total_records(self) -> int:
        """Number of *distinct* records indexed (replicas not counted)."""
        return sum(node.load for node in self._nodes() if self._holds_own(node))
