"""An O(1) consistent-hashing DHT oracle.

``LocalDht`` assigns every key to one of ``n_peers`` virtual peers by
consistent hashing on the same 160-bit ring the routed overlays use
(each peer owns the arc ending at its identifier), but resolves
ownership locally instead of routing: in O(log n) the first time a key
is asked, and from the ring's per-key memo after that.  Every key has
that one owner, so a request is one call of :meth:`LocalDht.exchange`,
answered by the owner's ``KeyValuePeer.serve``.  Because the paper's
metrics count DHT *operations* — not overlay hops — all figure
reproductions run on this substrate; the routed overlays are exercised
by their own tests and by the substrate-swap ablation, which verifies
the index-level counters are identical across substrates.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.dht.api import Dht
from repro.dht.durable import open_peer_store, peer_data_dir
from repro.dht.peer import HashRing, KeyValuePeer


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
        self._peers = {
            name: KeyValuePeer(
                name, open_peer_store(durability, self.data_dir, name)
            )
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
        for peer in self._peers.values():
            yield from peer.store.items()

    def key_count(self) -> int:
        """Stored keys via the non-decoding ``keys()`` walk."""
        return sum(len(peer.store) for peer in self._peers.values())

    # ------------------------------------------------------------------
    # Placement and the exchange: a ring lookup and a method call
    # ------------------------------------------------------------------
    #
    # The ring places every key on one peer, so a request is one
    # exchange with its owner (or with *peer*, when named) and its reply
    # needs no combining: ``ask`` skips the generic targets walk.  The
    # exchange stays the one seam a subclass overrides to fail requests.

    def ask(self, op: str, key: str, value: Any = None, peer: str | None = None) -> Any:
        return self.exchange(peer, op, key, value)

    def exchange(self, peer: str, op: str, key: str, value: Any = None) -> Any:
        node = self._peers.get(self._ring.peer_of(key) if peer is None else peer)
        if node is None:
            raise NodeUnreachableError(f"peer {peer!r} is not on the ring")
        return node.serve(op, key, value)
