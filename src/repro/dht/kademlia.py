"""A Kademlia DHT over the simulated network.

Implements the XOR-metric overlay of Maymounkov & Mazieres: 160-bit
identifiers, per-prefix k-buckets, and iterative lookup with
concurrency ``alpha``.  Storage is placed on the globally closest node
(``k_store = 1``) so that ownership is a deterministic function of the
key — which the index layers above require for exactness; classic
redundant storage on the k closest is available through
``replication``.

Kademlia is here to demonstrate the substrate independence claimed by
the paper ("m-LIGHT is adaptable to any DHT substrate"): the ablation
benchmark swaps this overlay in under m-LIGHT and checks the
index-level cost counters do not change.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from typing import Any

from repro.common.errors import DhtKeyError, NodeUnreachableError, ReproError
from repro.dht.api import Dht, data_wire_size, request_wire_size
from repro.dht.overlay import RoutedOverlay
from repro.dht.durable import (
    backend_path,
    create_store_backend,
    resolve_data_dir,
)
from repro.dht.hashing import key_digest, node_id_from_name, xor_distance
from repro.dht.storage import PeerStore
from repro.net.message import Message
from repro.net.simnet import RpcError, SimNetwork

#: k-bucket capacity.
BUCKET_SIZE = 8

#: Lookup concurrency (classic alpha).
ALPHA = 3

#: Identifier width.
ID_BITS = 160


class KademliaNode:
    """One Kademlia peer: k-buckets, storage, RPC handlers."""

    def __init__(
        self,
        name: str,
        network: SimNetwork,
        store: PeerStore | None = None,
    ) -> None:
        self.name = name
        self.ident = node_id_from_name(name)
        self.network = network
        self.store = store if store is not None else PeerStore()
        # buckets[i] holds contacts whose XOR distance has bit length i+1.
        self.buckets: list[list[tuple[int, str]]] = [
            [] for _ in range(ID_BITS)
        ]
        network.register(name, self)

    # ------------------------------------------------------------------
    # Routing table
    # ------------------------------------------------------------------

    def _bucket_index(self, ident: int) -> int:
        distance = xor_distance(self.ident, ident)
        if distance == 0:
            raise ReproError("a node never stores itself in a bucket")
        return distance.bit_length() - 1

    def observe(self, ident: int, name: str) -> None:
        """Record a live contact (move-to-front, capacity k)."""
        if ident == self.ident:
            return
        bucket = self.buckets[self._bucket_index(ident)]
        entry = (ident, name)
        if entry in bucket:
            bucket.remove(entry)
            bucket.append(entry)
            return
        if len(bucket) < BUCKET_SIZE:
            bucket.append(entry)
            return
        # Ping the least-recently seen contact; evict it if dead.
        oldest_ident, oldest_name = bucket[0]
        if self.network.is_registered(oldest_name):
            return  # keep old, drop new (Kademlia's anti-churn bias)
        bucket.pop(0)
        bucket.append(entry)

    def closest_contacts(self, ident: int, count: int) -> list[tuple[int, str]]:
        """The *count* known contacts closest to *ident* (self included)."""
        contacts = [(self.ident, self.name)]
        for bucket in self.buckets:
            contacts.extend(bucket)
        contacts.sort(key=lambda pair: xor_distance(pair[0], ident))
        return contacts[:count]

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------

    def handle_rpc(self, message: Message) -> Any:
        args, kwargs = message.payload
        method = getattr(self, "rpc_" + message.msg_type, None)
        if method is None:
            raise RpcError(f"unknown RPC {message.msg_type!r}")
        return method(*args, **kwargs)

    def rpc_find_node(
        self, ident: int, caller_ident: int, caller_name: str
    ) -> list[tuple[int, str]]:
        self.observe(caller_ident, caller_name)
        return self.closest_contacts(ident, BUCKET_SIZE)

    def rpc_store_put(self, key: str, value: Any) -> None:
        self.store.put(key, value)

    def rpc_store_get(self, key: str) -> Any | None:
        return self.store.get(key)

    def rpc_store_remove(self, key: str) -> Any:
        return self.store.remove(key)

    def rpc_store_contains(self, key: str) -> bool:
        return key in self.store


class KademliaDht(RoutedOverlay, Dht):
    """The :class:`~repro.dht.api.Dht` facade over a Kademlia overlay."""

    def __init__(
        self,
        network: SimNetwork | None = None,
        durability: str | None = None,
        data_dir: str | None = None,
    ) -> None:
        super().__init__()
        self.network = network if network is not None else SimNetwork()
        self.durability = durability
        self.data_dir = (
            resolve_data_dir(data_dir, "kad")
            if durability is not None
            else None
        )
        self._nodes: dict[str, KademliaNode] = {}

    def _new_store(self, name: str) -> PeerStore:
        backend = None
        if self.durability is not None:
            backend = create_store_backend(
                self.durability, backend_path(self.data_dir, name)
            )
        return PeerStore(backend=backend)

    @classmethod
    def build(
        cls,
        n_peers: int,
        network: SimNetwork | None = None,
        durability: str | None = None,
        data_dir: str | None = None,
    ) -> "KademliaDht":
        """Create *n_peers* and bootstrap their routing tables."""
        if n_peers < 1:
            raise ReproError(f"n_peers must be >= 1, got {n_peers}")
        dht = cls(network, durability, data_dir)
        for index in range(n_peers):
            name = f"kad-{index:04d}"
            dht._nodes[name] = KademliaNode(
                name, dht.network, store=dht._new_store(name)
            )
        dht.bootstrap()
        return dht

    def bootstrap(self) -> None:
        """Populate every node's buckets from global knowledge.

        Equivalent to the steady state after every node has performed a
        self-lookup against a connected network; done directly so large
        rings construct quickly.
        """
        everyone = [(node.ident, node.name) for node in self._nodes.values()]
        for node in self._nodes.values():
            # Insert closest contacts first so full buckets keep the
            # closest neighbours, which iterative lookup depends on.
            for ident, name in sorted(
                everyone, key=lambda pair: xor_distance(pair[0], node.ident)
            ):
                node.observe(ident, name)

    def join(self, name: str, gateway: str | None = None) -> None:
        """Protocol join: learn contacts via an iterative self-lookup."""
        if name in self._nodes:
            raise ReproError(f"peer {name!r} already joined")
        node = KademliaNode(name, self.network, store=self._new_store(name))
        self._nodes[name] = node
        others = [n for n in self._nodes if n != name]
        if not others:
            return
        gateway_name = gateway if gateway else min(others)
        gateway_node = self._nodes[gateway_name]
        node.observe(gateway_node.ident, gateway_node.name)
        self._iterative_find(node, node.ident)
        # Republish: pull keys this node is now closest to.
        for other in list(self._nodes.values()):
            if other is node:
                continue
            moved = other.store.pop_range(
                lambda digest: xor_distance(digest, node.ident)
                < xor_distance(digest, other.ident)
            )
            for key, value in moved:
                node.store.put(key, value)

    def leave(self, name: str) -> None:
        """Graceful departure: push each stored key to the remaining
        node closest to its digest, then go.

        The peer's durable state is wiped so handed-off keys cannot
        resurrect through a later :meth:`restart`."""
        node = self._nodes.get(name)
        if node is None:
            raise ReproError(f"unknown peer {name!r}")
        others = [n for n in self._nodes.values() if n.name != name]
        if others:
            for key, value in node.store.pop_range(lambda digest: True):
                digest = key_digest(key)
                target = min(
                    others, key=lambda n: xor_distance(n.ident, digest)
                )
                self.network.rpc(name, target.name, "store_put", key, value)
        node.store.wipe_backend()
        self.network.unregister(name)
        del self._nodes[name]

    def fail(self, name: str) -> None:
        """Abrupt crash; durable state stays on disk for restart."""
        node = self._nodes.get(name)
        if node is None:
            raise ReproError(f"unknown peer {name!r}")
        node.store.close_backend()
        self.network.unregister(name)
        del self._nodes[name]

    def _do_restart(self, name: str) -> None:
        """Recover a crashed peer: replay its durable log, rejoin the
        overlay, then reconcile — pull keys now XOR-closest to it,
        push keys that stopped being its responsibility while down."""
        if name in self._nodes:
            raise ReproError(f"peer {name!r} is already live")
        if self.durability is None:
            raise ReproError(
                "restart requires a durable backend; build the overlay "
                "with durability=..."
            )
        backend = create_store_backend(
            self.durability, backend_path(self.data_dir, name)
        )
        store = PeerStore.recover(backend)
        node = KademliaNode(name, self.network, store=store)
        self._nodes[name] = node
        stats = self.stats
        stats.restarts += 1
        stats.restart_replayed += len(store)
        others = [n for n in self._nodes.values() if n.name != name]
        if not others:
            return
        gateway = min(others, key=lambda n: n.name)
        node.observe(gateway.ident, gateway.name)
        self._iterative_find(node, node.ident)
        # Reconcile: pull keys written while down that now belong here.
        for other in others:
            moved = other.store.pop_range(
                lambda digest: xor_distance(digest, node.ident)
                < xor_distance(digest, other.ident)
            )
            for key, value in moved:
                self.network.rpc(
                    other.name, name, "store_put", key, value,
                    size_bytes=request_wire_size(key, value),
                    payload_bytes=data_wire_size(value),
                )
                stats.restart_reconciled += 1
                stats.restart_repair_bytes += request_wire_size(key, value)
        # Re-home: keys whose ownership moved while this peer was down.
        moved = node.store.pop_range(
            lambda digest: min(
                self._nodes.values(),
                key=lambda n: xor_distance(n.ident, digest),
            )
            is not node
        )
        for key, value in moved:
            digest = key_digest(key)
            owner = min(
                self._nodes.values(),
                key=lambda n: xor_distance(n.ident, digest),
            )
            self.network.rpc(
                name, owner.name, "store_put", key, value,
                size_bytes=request_wire_size(key, value),
                payload_bytes=data_wire_size(value),
            )
            stats.restart_rehomed += 1
            stats.restart_repair_bytes += request_wire_size(key, value)

    def stabilize_all(self, rounds: int = 1) -> None:
        """Periodic maintenance, run to convergence.

        Equivalent to the steady state of Kademlia's upkeep — bucket
        refreshes purge dead contacts and re-learn live ones, and
        republishing migrates each key to the node now closest to it
        (what STORE refreshes achieve between churn events).  Done
        from global knowledge so churn tests converge quickly, the
        same shortcut :meth:`bootstrap` takes.
        """
        for _ in range(rounds):
            for node in self._nodes.values():
                for bucket in node.buckets:
                    bucket[:] = [
                        pair for pair in bucket if pair[1] in self._nodes
                    ]
            self.bootstrap()
            for node in list(self._nodes.values()):
                moved = node.store.pop_range(
                    lambda digest, me=node: min(
                        self._nodes.values(),
                        key=lambda n: xor_distance(n.ident, digest),
                    )
                    is not me
                )
                for key, value in moved:
                    digest = key_digest(key)
                    owner = min(
                        self._nodes.values(),
                        key=lambda n: xor_distance(n.ident, digest),
                    )
                    self.network.rpc(
                        node.name, owner.name, "store_put", key, value
                    )

    # ------------------------------------------------------------------
    # Iterative lookup
    # ------------------------------------------------------------------

    def _iterative_find(
        self, start: KademliaNode, target: int
    ) -> list[tuple[int, str]]:
        """Classic iterative FIND_NODE; meters overlay hops."""
        shortlist = start.closest_contacts(target, BUCKET_SIZE)
        queried: set[int] = {start.ident}
        improved = True
        while improved:
            improved = False
            candidates = [
                pair for pair in shortlist if pair[0] not in queried
            ][:ALPHA]
            for ident, name in candidates:
                queried.add(ident)
                try:
                    learned = self.network.rpc(
                        start.name,
                        name,
                        "find_node",
                        target,
                        start.ident,
                        start.name,
                    )
                except RpcError:
                    continue
                self.stats.hops += 1
                start.observe(ident, name)
                for l_ident, l_name in learned:
                    if l_ident != start.ident:
                        start.observe(l_ident, l_name)
                merged = {pair for pair in shortlist}
                merged.update(
                    (l_ident, l_name) for l_ident, l_name in learned
                )
                new_shortlist = heapq.nsmallest(
                    BUCKET_SIZE,
                    merged,
                    key=lambda pair: xor_distance(pair[0], target),
                )
                if new_shortlist != shortlist:
                    improved = True
                shortlist = new_shortlist
        return shortlist

    # ------------------------------------------------------------------
    # Oracle access
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> str:
        digest = key_digest(key)
        return min(
            self._nodes.values(),
            key=lambda node: xor_distance(node.ident, digest),
        ).name

    def peers(self) -> list[str]:
        return sorted(self._nodes)

    def items(self) -> Iterator[tuple[str, Any]]:
        for node in self._nodes.values():
            yield from node.store.items()

    def key_count(self) -> int:
        """Stored keys via the non-decoding ``keys()`` walk."""
        return sum(len(node.store) for node in self._nodes.values())

    def node(self, name: str) -> KademliaNode:
        """Direct peer access (tests only)."""
        return self._nodes[name]

    # ------------------------------------------------------------------
    # Substrate primitives
    # ------------------------------------------------------------------

    def route_owner(self, key: str, src: str | None = None) -> str:
        """Iterative FIND_NODE whose shortlist starts from *src*'s own
        buckets (default: the gateway's); see
        :meth:`RoutedOverlay.route_owner`."""
        digest = key_digest(key)
        shortlist = self._iterative_find(self._route_start(src), digest)
        # Mid-churn lookups can still shortlist a contact that died
        # since it was learned; ownership goes to the closest *live*
        # candidate, exactly as a real client falls through its
        # shortlist when the best entry stops answering.
        live = [pair for pair in shortlist if pair[1] in self._nodes]
        if not live:
            raise NodeUnreachableError(
                "iterative lookup returned no live contacts"
            )
        return min(live, key=lambda pair: xor_distance(pair[0], digest))[1]

    def _do_get(self, key: str) -> Any | None:
        owner = self._owner(key)
        return self.network.rpc(
            self._gateway().name, owner.name, "store_get", key,
            size_bytes=request_wire_size(key),
        )

    def _do_get_direct(self, peer: str, key: str) -> Any | None:
        # One point-to-point store read, no iterative lookup.
        return self.network.rpc(
            self._gateway().name, peer, "store_get", key,
            size_bytes=request_wire_size(key),
        )

    def _do_put(self, key: str, value: Any) -> None:
        owner = self._owner(key)
        self.network.rpc(
            self._gateway().name, owner.name, "store_put", key, value,
            size_bytes=request_wire_size(key, value),
            payload_bytes=data_wire_size(value),
        )

    def _do_remove(self, key: str) -> Any:
        owner = self._owner(key)
        if not self.network.rpc(
            self._gateway().name, owner.name, "store_contains", key,
            size_bytes=request_wire_size(key),
        ):
            raise DhtKeyError(f"key {key!r} does not exist")
        return self.network.rpc(
            self._gateway().name, owner.name, "store_remove", key,
            size_bytes=request_wire_size(key),
        )

    def rewrite_local(self, key: str, value: Any) -> None:
        """Zero-cost in-place rewrite by the peer holding the key (no
        routing; see the over-DHT cost model in repro.dht.api)."""
        for node in self._nodes.values():
            if key in node.store:
                node.store.put(key, value)
                return
        raise DhtKeyError(
            f"rewrite_local of absent key {key!r}; a routed put is "
            "required to create it"
        )

    def _do_contains(self, key: str) -> bool:
        owner = self._owner(key)
        return self.network.rpc(
            self._gateway().name, owner.name, "store_contains", key,
            size_bytes=request_wire_size(key),
        )
