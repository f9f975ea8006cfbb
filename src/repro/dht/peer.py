"""Runtime-neutral peer building blocks.

Every substrate — the in-process :class:`~repro.dht.localhash.LocalDht`
oracle, the routed overlays over :class:`~repro.net.simnet.SimNetwork`,
and the asyncio/TCP service runtime (:mod:`repro.service`) — needs the
same two ingredients: a *placement* rule mapping keys to peers, and a
per-peer *request server* over a :class:`~repro.dht.storage.PeerStore`.
This module hosts both runtime-free.  A substrate's one exchange
(:meth:`~repro.dht.api.Dht.exchange`) carries a request to a
:class:`KeyValuePeer` — as a plain method call, a simulated RPC, a
decoded wire frame or a real socket — and :meth:`KeyValuePeer.serve`
answers it, so a new kind of request is one ``serve`` branch.
"""

from __future__ import annotations

import bisect
from typing import Any

from repro.common.errors import DhtKeyError, ReproError
from repro.dht.hashing import key_digest, node_id_from_name
from repro.dht.storage import PeerStore


#: Keys a :class:`HashRing` remembers the owner of before it forgets
#: them all: the memo's table is then ≈ 0.4 MB (``sys.getsizeof`` of a
#: 2¹⁴-entry dict) and keeps at most that many key strings alive
#: (≈ 50 bytes plus the key's length each), whatever the key stream.
OWNER_MEMO_ENTRIES = 1 << 14


class HashRing:
    """Consistent-hashing placement over a fixed peer set.

    Each peer owns the ring arc ending at its identifier (successor
    ownership, the same rule Chord applies to live node ids), with
    optional virtual nodes to even out arc lengths.  This is pure
    placement — no storage, no transport — so every runtime that wants
    oracle-grade O(log n) ownership resolution shares one implementation.

    Placement is memoized per key: an owner is a pure function of the
    key and of a peer set that never changes after construction, so a
    remembered answer cannot go stale, and a repeated key costs one
    dict read instead of a SHA-1 digest and a bisect.  The memo is
    cleared when it holds :data:`OWNER_MEMO_ENTRIES` keys, and it takes
    no lock: the worst a race can do is compute one owner twice.
    """

    __slots__ = ("_peer_names", "_ring_ids", "_ring_names", "_owners")

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
        self._owners: dict[str, str] = {}

    def peer_of(self, key: str) -> str:
        """Successor-style owner of *key* on the ring."""
        owner = self._owners.get(key)
        if owner is None:
            index = bisect.bisect_left(self._ring_ids, key_digest(key))
            owner = self._ring_names[index % len(self._ring_ids)]
            if len(self._owners) >= OWNER_MEMO_ENTRIES:
                self._owners.clear()
            self._owners[key] = owner
        return owner

    def peers(self) -> list[str]:
        """The peer names, in construction order."""
        return list(self._peer_names)


class KeyValuePeer:
    """One peer's storage plus the request server over it.

    ``serve`` is the runtime-neutral entry point: the storage
    primitives (``get``, ``put``, ``remove``, ``contains``, ``lookup``)
    and the one-request rewrites (``rewrite``: put where present;
    ``append``: add one ``(point, value)`` record to the stored bucket),
    dispatched by name.  Every substrate's peers are these: ``LocalDht``
    calls ``serve`` directly, the routed overlays' node
    (:class:`~repro.dht.overlay.OverlayNode`) extends this class and
    answers its ``store_*`` RPCs through it, and the service runtime
    calls it on the loop after decoding a wire frame.  Storage
    semantics (absent-key errors included) therefore cannot drift
    between runtimes.
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
        if op == "append":
            return self.store.append(key, value)
        if op == "rewrite":
            if key not in self.store:
                return False
            self.store.put(key, value)
            return True
        if op == "contains":
            return key in self.store
        if op == "lookup":
            # Reaching this peer at all answers the question: placement
            # already routed here, so the peer confirms ownership.
            return self.name
        raise ReproError(f"unknown peer operation {op!r}")
