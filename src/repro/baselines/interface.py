"""Common interface of all three over-DHT indexes, and the stored-node
base the two trie baselines share.

The experiment harness drives m-LIGHT, PHT and DST through this
protocol only, so every figure runner is index-agnostic.  All three
report costs through the shared :class:`~repro.dht.api.DhtStats` of
their DHT and return :class:`~repro.core.rangequery.RangeQueryResult`
from range queries.

A trie cell is a kd-tree cell (:func:`~repro.common.geometry.
region_of_bits` halves the same dimensions in the same order), so a
trie node keeps its records in the :class:`~repro.core.bucket.
LeafBucket` of that cell, labelled ``root_label(dims) + prefix``: the
record store, the codec and the byte model are m-LIGHT's.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.common.config import IndexConfig
from repro.common.geometry import Point, Region
from repro.common.labels import root_label
from repro.core.bucket import LeafBucket
from repro.core.codec import encoded_bucket_size
from repro.core.results import RangeQueryResult
from repro.dht.api import Dht
from repro.net.message import WireSized


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


class OverDhtIndex(ABC):
    """An index layered over the generic DHT ``put/get/lookup`` API."""

    dht: Dht

    @abstractmethod
    def insert(self, key: Point, value: Any = None) -> None:
        """Insert one record."""

    @abstractmethod
    def delete(self, key: Point, value: Any = None) -> bool:
        """Delete one record; False when absent."""

    @abstractmethod
    def range_query(self, query: Region) -> RangeQueryResult:
        """Return every record matching the closed region *query*."""

    @abstractmethod
    def total_records(self) -> int:
        """Number of *distinct* records indexed (replicas not counted)."""


class TrieIndex(OverDhtIndex):
    """What PHT and DST share: a binary trie over the kd-tree's cells
    (depth at most ``config.max_depth``) whose node at prefix ``p``
    keeps its records in the bucket of label ``root_label(dims) + p``."""

    def __init__(self, dht: Dht, config: IndexConfig | None = None) -> None:
        self.dht = dht
        self._config = config if config is not None else IndexConfig()
        self._dims = self._config.dims
        self._depth = self._config.max_depth
        self._root = root_label(self._dims)

    def _bucket(self, prefix: str, records=None) -> LeafBucket:
        """The bucket of trie cell *prefix*, holding *records* (a record
        list or :class:`~repro.core.store.Rows`) in a store of the
        configured kind."""
        return LeafBucket(
            self._root + prefix, self._dims, records, self._config.store
        )
