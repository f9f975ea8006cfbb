"""An O(1) consistent-hashing DHT oracle.

``LocalDht`` assigns every key to one of ``n_peers`` virtual peers by
consistent hashing on the same 160-bit ring the routed overlays use
(each peer owns the arc ending at its identifier), but resolves
ownership in O(log n) locally instead of routing.  Because the paper's
metrics count DHT *operations* — not overlay hops — all figure
reproductions run on this substrate; the routed overlays are exercised
by their own tests and by the substrate-swap ablation, which verifies
the index-level counters are identical across substrates.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.common.errors import (
    DhtKeyError,
    NodeUnreachableError,
    ReproError,
)
from repro.dht.api import Dht
from repro.dht.durable import open_peer_store, peer_data_dir
from repro.dht.peer import HashRing
from repro.dht.storage import PeerStore


class LocalDht(Dht):
    """In-process consistent-hashing DHT with per-peer stores."""

    def __init__(
        self,
        n_peers: int = 128,
        virtual_nodes: int = 1,
        durability: str | None = None,
        data_dir: str | None = None,
    ) -> None:
        """*virtual_nodes* > 1 gives each peer that many ring positions
        (DHash/Bamboo-style virtual hosts), evening out the arc lengths
        peers own; load-balance experiments use this so that measured
        imbalance reflects the index, not hash-arc luck.

        *durability* journals every peer store into a durable backend
        (:mod:`repro.dht.durable`).  This oracle has no membership, so
        there is no restart protocol here — the option exists so the
        one config surface (``IndexConfig(durability=...)``) applies
        to every substrate uniformly."""
        super().__init__()
        if n_peers < 1:
            raise ReproError(f"n_peers must be >= 1, got {n_peers}")
        self.durability = durability
        self.data_dir = peer_data_dir(durability, data_dir, "local")
        self._ring = HashRing(
            [f"peer-{index:04d}" for index in range(n_peers)],
            virtual_nodes,
        )
        self._stores: dict[str, PeerStore] = {
            name: open_peer_store(durability, self.data_dir, name)
            for name in self._ring.peers()
        }

    # ------------------------------------------------------------------
    # Oracle access
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> str:
        """Successor-style owner of *key* on the hash ring."""
        return self._ring.peer_of(key)

    def peers(self) -> list[str]:
        return self._ring.peers()

    def items(self) -> Iterator[tuple[str, Any]]:
        for store in self._stores.values():
            yield from store.items()

    def key_count(self) -> int:
        """Stored keys via the non-decoding ``keys()`` walk."""
        return sum(len(store) for store in self._stores.values())

    # ------------------------------------------------------------------
    # Substrate primitives
    # ------------------------------------------------------------------

    def _store_for(self, key: str) -> PeerStore:
        return self._stores[self.peer_of(key)]

    def _do_lookup(self, key: str) -> str:
        return self.peer_of(key)

    def _do_get(self, key: str) -> Any | None:
        return self._store_for(key).get(key)

    def _do_put(self, key: str, value: Any) -> None:
        self._store_for(key).put(key, value)

    def _do_remove(self, key: str) -> Any:
        store = self._store_for(key)
        if key not in store:
            raise DhtKeyError(f"key {key!r} does not exist")
        return store.remove(key)

    def _do_contains(self, key: str) -> bool:
        return key in self._store_for(key)

    def _do_get_direct(self, peer: str, key: str) -> Any | None:
        store = self._stores.get(peer)
        if store is None:
            raise NodeUnreachableError(f"peer {peer!r} is not on the ring")
        return store.get(key)
