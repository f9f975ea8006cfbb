"""Runtime-neutral peer building blocks.

Every substrate — the in-process :class:`~repro.dht.localhash.LocalDht`
oracle, the routed overlays over :class:`~repro.net.simnet.SimNetwork`,
and the asyncio/TCP service runtime (:mod:`repro.service`) — needs the
same two ingredients: a *placement* rule mapping keys to peers, and a
per-peer *request server* over a :class:`~repro.dht.storage.PeerStore`.
Both used to live tangled inside substrate classes; this module hosts
them runtime-free so a peer can be driven by a plain method call, a
simulated RPC, a decoded wire frame, or a real socket without
rewriting storage semantics.
"""

from __future__ import annotations

import bisect
from typing import Any

from repro.common.errors import DhtKeyError, ReproError
from repro.dht.hashing import key_digest, node_id_from_name
from repro.dht.storage import PeerStore


class HashRing:
    """Consistent-hashing placement over a fixed peer set.

    Each peer owns the ring arc ending at its identifier (successor
    ownership, the same rule Chord applies to live node ids), with
    optional virtual nodes to even out arc lengths.  This is pure
    placement — no storage, no transport — so every runtime that wants
    oracle-grade O(log n) ownership resolution shares one implementation.
    """

    __slots__ = ("_peer_names", "_ring_ids", "_ring_names")

    def __init__(
        self, peer_names: list[str], virtual_nodes: int = 1
    ) -> None:
        if not peer_names:
            raise ReproError("a hash ring needs at least one peer")
        if virtual_nodes < 1:
            raise ReproError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}"
            )
        self._peer_names = list(peer_names)
        ids = sorted(
            (node_id_from_name(f"{name}#{vnode}"), name)
            for name in self._peer_names
            for vnode in range(virtual_nodes)
        )
        self._ring_ids = [ident for ident, _ in ids]
        self._ring_names = [name for _, name in ids]

    def peer_of(self, key: str) -> str:
        """Successor-style owner of *key* on the ring."""
        digest = key_digest(key)
        index = bisect.bisect_left(self._ring_ids, digest)
        if index == len(self._ring_ids):
            index = 0
        return self._ring_names[index]

    def peers(self) -> list[str]:
        """The peer names, in construction order."""
        return list(self._peer_names)


class KeyValuePeer:
    """One peer's storage plus the request server over it.

    ``serve`` is the runtime-neutral entry point: the five primitive
    operations of the :class:`~repro.dht.api.Dht` contract, dispatched
    by name.  The routed overlays' node
    (:class:`~repro.dht.overlay.OverlayNode`) extends this class and
    answers its ``store_*`` RPCs through it in-process; the service
    runtime calls it on the loop after decoding a wire frame.
    Storage semantics (absent-key errors included) therefore cannot
    drift between runtimes.  (``LocalDht`` keeps bare
    :class:`PeerStore` objects — it has no request server to share.)
    """

    __slots__ = ("name", "store")

    def __init__(self, name: str, store: PeerStore | None = None) -> None:
        self.name = name
        self.store = store if store is not None else PeerStore()

    def serve(self, op: str, key: str, value: Any = None) -> Any:
        """Execute one primitive against this peer's store."""
        if op == "get":
            return self.store.get(key)
        if op == "put":
            self.store.put(key, value)
            return None
        if op == "remove":
            if key not in self.store:
                raise DhtKeyError(f"key {key!r} does not exist")
            return self.store.remove(key)
        if op == "contains":
            return key in self.store
        if op == "lookup":
            # Reaching this peer at all answers the question: placement
            # already routed here, so the peer confirms ownership.
            return self.name
        raise ReproError(f"unknown peer operation {op!r}")
