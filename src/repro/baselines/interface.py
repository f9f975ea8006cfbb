"""Common interface of all three over-DHT indexes, and the stored-node
base the two trie baselines share.

The experiment harness drives m-LIGHT, PHT and DST through this
protocol only, so every figure runner is index-agnostic.  All three
report costs through the shared :class:`~repro.dht.api.DhtStats` of
their DHT and return :class:`~repro.core.rangequery.RangeQueryResult`
from range queries.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.common.geometry import Point, Region
from repro.core.codec import FIXED_BYTES
from repro.core.records import Record
from repro.core.results import RangeQueryResult
from repro.core.store import DEFAULT_STORE, ColumnarStore, create_store
from repro.dht.api import Dht
from repro.net.message import WireSized


@dataclass(slots=True)
class TrieNode(WireSized):
    """What PHT's and DST's stored nodes share: a record list behind a
    lazily built record store, priced on the wire as the bucket codec
    would carry it.  Subclasses declare ``prefix`` and ``records`` (and
    whatever else their scheme stores)."""

    #: Lazily built record store behind the filter; rebuilt whenever
    #: the generation counter says the records changed.
    _store: ColumnarStore | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _generation: int = field(default=0, init=False, repr=False, compare=False)
    _built_generation: int = field(
        default=-1, init=False, repr=False, compare=False
    )

    @property
    def load(self) -> int:
        return len(self.records)

    def encoded_wire_size(self) -> int:
        """Codec-shaped bytes: the bucket codec's fixed framing with the
        prefix as label, the coordinate columns and, when any record
        carries a value, the values' pickle."""
        records = self.records
        dims = len(records[0].key) if records else 0
        size = FIXED_BYTES + len(self.prefix) + dims * len(records) * 8
        if any(record.value is not None for record in records):
            size += len(
                pickle.dumps(
                    tuple(record.value for record in records),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
        return size

    def touch(self) -> None:
        """Invalidate derived state after mutating ``records``.

        A generation counter, not a count compare: an equal-count
        remove+add between queries must still invalidate the store.
        """
        self._generation += 1

    def matching(
        self, query: Region, dims: int, kind: str = DEFAULT_STORE
    ) -> list[Record]:
        """Records inside the closed *query*, via the configured record
        store (both tries share the kd split cycle, so the cell's next
        split dimension orders the store)."""
        store = self._store
        if (
            store is None
            or store.kind != kind
            or self._built_generation != self._generation
        ):
            store = create_store(
                kind, dims, len(self.prefix) % dims, self.records
            )
            self._store = store
            self._built_generation = self._generation
        return store.matching(query.lows, query.highs)


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
