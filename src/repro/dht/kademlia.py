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

from repro.common.errors import NodeUnreachableError, ReproError
from repro.dht.api import PUT
from repro.dht.hashing import ID_BITS, key_digest, xor_distance
from repro.dht.overlay import OverlayNode, RoutedOverlay
from repro.dht.storage import PeerStore
from repro.net.simnet import RpcError, SimNetwork

#: k-bucket capacity.
BUCKET_SIZE = 8

#: Lookup concurrency (classic alpha).
ALPHA = 3


class KademliaNode(OverlayNode):
    """One Kademlia peer: k-buckets and the FIND_NODE RPC."""

    def __init__(
        self,
        name: str,
        network: SimNetwork,
        store: PeerStore | None = None,
    ) -> None:
        super().__init__(name, network, store)
        # buckets[i] holds contacts whose XOR distance has bit length i+1.
        self.buckets: list[list[tuple[int, str]]] = [
            [] for _ in range(ID_BITS)
        ]

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

    def rpc_find_node(
        self, ident: int, caller_ident: int, caller_name: str
    ) -> list[tuple[int, str]]:
        self.observe(caller_ident, caller_name)
        return self.closest_contacts(ident, BUCKET_SIZE)


class KademliaDht(RoutedOverlay):
    """The :class:`~repro.dht.api.Dht` facade over a Kademlia overlay."""

    prefix = "kad"
    node_class = KademliaNode

    def rewire(self) -> None:
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

    def _enter(
        self, node: KademliaNode, gateway: KademliaNode, rejoining: bool
    ) -> list:
        """The Kademlia join: learn contacts via an iterative
        self-lookup, then republish — pull the keys this node is now
        XOR-closest to.  A join's republish is modelled free; a
        restart's is repair traffic, so it rides sized ``store_put``s."""
        node.observe(gateway.ident, gateway.name)
        self._iterative_find(node, node.ident)
        pulled = []
        for other in list(self._nodes.values()):
            if other is node:
                continue
            moved = other.store.pop_range(
                lambda digest: xor_distance(digest, node.ident)
                < xor_distance(digest, other.ident)
            )
            for key, value in moved:
                if rejoining:
                    self._rpc(other.name, node.name, PUT, key, value)
                else:
                    node.store.put(key, value)
            pulled += moved
        return pulled

    def stabilize_all(self, rounds: int = 1) -> None:
        """Periodic maintenance, run to convergence.

        Equivalent to the steady state of Kademlia's upkeep — bucket
        refreshes purge dead contacts and re-learn live ones, and
        republishing migrates each key to the node now closest to it
        (what STORE refreshes achieve between churn events).  Done
        from global knowledge so churn tests converge quickly, the
        same shortcut :meth:`rewire` takes.
        """
        for _ in range(rounds):
            for node in self._nodes.values():
                for bucket in node.buckets:
                    bucket[:] = [
                        pair for pair in bucket if pair[1] in self._nodes
                    ]
            self.rewire()
            for node in list(self._nodes.values()):
                self._rehome(node)

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

    def _owner_of_digest(self, digest: int) -> KademliaNode:
        """The XOR-closest live node (oracle)."""
        return min(
            self._nodes.values(),
            key=lambda node: xor_distance(node.ident, digest),
        )
