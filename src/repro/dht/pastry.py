"""A Pastry-style DHT over the simulated network.

Pastry (Rowstron & Druschel, Middleware'01) routes by prefix matching
on hexadecimal digits of the 160-bit identifier, keeping per-node a
*routing table* (one row per shared-prefix length, one column per next
digit) and a *leaf set* (the numerically closest nodes on either side).
Ownership follows the numerically closest identifier, which the leaf
set resolves in the final hop.

Bamboo — the substrate of the paper's evaluation — is a Pastry variant
hardened for churn, so this overlay is the closest cousin of the
paper's actual deployment.  It implements the third point of the
substrate-independence argument: m-LIGHT's costs are identical over
ring, XOR and prefix-routing DHTs.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.common.errors import DhtKeyError, ReproError
from repro.dht.api import Dht, data_wire_size, request_wire_size
from repro.dht.overlay import RoutedOverlay
from repro.dht.durable import (
    backend_path,
    create_store_backend,
    resolve_data_dir,
)
from repro.dht.hashing import ID_BITS, key_digest, node_id_from_name
from repro.dht.storage import PeerStore
from repro.net.message import Message
from repro.net.simnet import RpcError, SimNetwork

#: Digit width in bits (b = 4: hexadecimal digits, as in the paper).
DIGIT_BITS = 4

#: Number of digits in an identifier.
N_DIGITS = ID_BITS // DIGIT_BITS

#: Leaf-set size per side.
LEAF_SET_SIDE = 4


def digits_of(ident: int) -> tuple[int, ...]:
    """The identifier as big-endian base-16 digits."""
    return tuple(
        ident >> (ID_BITS - DIGIT_BITS * (position + 1)) & (2**DIGIT_BITS - 1)
        for position in range(N_DIGITS)
    )


def shared_prefix_length(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Number of leading digits *a* and *b* share."""
    for position, (da, db) in enumerate(zip(a, b)):
        if da != db:
            return position
    return len(a)


def numeric_distance(a: int, b: int) -> int:
    """Plain absolute distance on the identifier line (Pastry's leaf
    sets use numeric closeness, not ring arcs)."""
    return abs(a - b)


class PastryNode:
    """One Pastry peer: routing table, leaf set, storage."""

    def __init__(
        self,
        name: str,
        network: SimNetwork,
        store: PeerStore | None = None,
    ) -> None:
        self.name = name
        self.ident = node_id_from_name(name)
        self.digits = digits_of(self.ident)
        self.network = network
        self.store = store if store is not None else PeerStore()
        # routing_table[row][column] -> (ident, name) | None
        self.routing_table: list[list[tuple[int, str] | None]] = [
            [None] * (2**DIGIT_BITS) for _ in range(N_DIGITS)
        ]
        self.leaf_set: list[tuple[int, str]] = []
        network.register(name, self)

    # ------------------------------------------------------------------
    # State maintenance
    # ------------------------------------------------------------------

    def learn(self, ident: int, name: str) -> None:
        """Insert a contact into the routing table and leaf set."""
        if ident == self.ident:
            return
        row = shared_prefix_length(self.digits, digits_of(ident))
        if row < N_DIGITS:
            column = digits_of(ident)[row]
            slot = self.routing_table[row][column]
            if slot is None or not self.network.is_registered(slot[1]):
                self.routing_table[row][column] = (ident, name)
        entry = (ident, name)
        if entry not in self.leaf_set:
            self.leaf_set.append(entry)
            self.leaf_set.sort(
                key=lambda pair: numeric_distance(pair[0], self.ident)
            )
            del self.leaf_set[2 * LEAF_SET_SIDE:]

    def forget(self, name: str) -> None:
        """Drop a dead contact everywhere."""
        self.leaf_set = [pair for pair in self.leaf_set if pair[1] != name]
        for row in self.routing_table:
            for column, slot in enumerate(row):
                if slot is not None and slot[1] == name:
                    row[column] = None

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------

    def handle_rpc(self, message: Message) -> Any:
        args, kwargs = message.payload
        method = getattr(self, "rpc_" + message.msg_type, None)
        if method is None:
            raise RpcError(f"unknown RPC {message.msg_type!r}")
        return method(*args, **kwargs)

    def rpc_next_hop(self, ident: int) -> tuple[int, str]:
        """Pastry's routing step, all three rules of the paper:

        1. target within the leaf-set range -> deliver to the
           numerically closest leaf-set member (the leaf set is a
           contiguous identifier neighbourhood, so that member is the
           global owner);
        2. otherwise forward along the routing-table entry with one
           more shared digit;
        3. otherwise (rare case) forward to any known node that is
           numerically closer with a shared prefix at least as long.
        """
        live_leaves = [
            pair
            for pair in self.leaf_set
            if self.network.is_registered(pair[1])
        ]
        if live_leaves:
            span = [pair[0] for pair in live_leaves] + [self.ident]
            if min(span) <= ident <= max(span):
                return min(
                    live_leaves + [(self.ident, self.name)],
                    key=lambda pair: numeric_distance(pair[0], ident),
                )
        target_digits = digits_of(ident)
        row = shared_prefix_length(self.digits, target_digits)
        if row < N_DIGITS:
            slot = self.routing_table[row][target_digits[row]]
            if slot is not None and self.network.is_registered(slot[1]):
                return slot
        # Fall back to a numerically closer contact whose shared prefix
        # is at least as long as ours — the Pastry paper's "rare case"
        # rule.  Without the prefix condition two nodes can ping-pong:
        # one prefix-hops away (longer prefix, numerically farther) and
        # the other hops numerically back.
        best = (self.ident, self.name)
        best_distance = numeric_distance(self.ident, ident)
        for contact_ident, contact_name in self._all_contacts():
            if not self.network.is_registered(contact_name):
                continue
            if (
                shared_prefix_length(digits_of(contact_ident), target_digits)
                < row
            ):
                continue
            distance = numeric_distance(contact_ident, ident)
            if distance < best_distance:
                best = (contact_ident, contact_name)
                best_distance = distance
        return best

    def _all_contacts(self) -> Iterator[tuple[int, str]]:
        yield from self.leaf_set
        for row in self.routing_table:
            for slot in row:
                if slot is not None:
                    yield slot

    def rpc_get_state(self) -> list[tuple[int, str]]:
        """Contacts shared with a joining node."""
        return [(self.ident, self.name)] + list(self._all_contacts())

    def rpc_learn_from(self, contacts: list[tuple[int, str]]) -> None:
        for ident, name in contacts:
            self.learn(ident, name)

    def rpc_store_get(self, key: str) -> Any | None:
        return self.store.get(key)

    def rpc_store_put(self, key: str, value: Any) -> None:
        self.store.put(key, value)

    def rpc_store_remove(self, key: str) -> Any:
        return self.store.remove(key)

    def rpc_store_contains(self, key: str) -> bool:
        return key in self.store

    def rpc_handoff(self, joiner_ident: int, joiner_name: str) -> list:
        """Give a newly joined neighbour the keys now closer to it."""
        return self.store.pop_range(
            lambda digest: numeric_distance(digest, joiner_ident)
            < numeric_distance(digest, self.ident)
        )


class PastryDht(RoutedOverlay, Dht):
    """The :class:`~repro.dht.api.Dht` facade over a Pastry overlay."""

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
            resolve_data_dir(data_dir, "pastry")
            if durability is not None
            else None
        )
        self._nodes: dict[str, PastryNode] = {}

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
    ) -> "PastryDht":
        """Create *n_peers* with fully populated state."""
        if n_peers < 1:
            raise ReproError(f"n_peers must be >= 1, got {n_peers}")
        dht = cls(network, durability, data_dir)
        for index in range(n_peers):
            name = f"pastry-{index:04d}"
            dht._nodes[name] = PastryNode(
                name, dht.network, store=dht._new_store(name)
            )
        everyone = [(node.ident, node.name) for node in dht._nodes.values()]
        for node in dht._nodes.values():
            for ident, name in everyone:
                node.learn(ident, name)
        return dht

    def join(self, name: str, gateway: str | None = None) -> None:
        """Join protocol: route to the closest node, copy state, take
        over the key range, and announce the newcomer."""
        if name in self._nodes:
            raise ReproError(f"peer {name!r} already joined")
        node = PastryNode(name, self.network, store=self._new_store(name))
        self._nodes[name] = node
        others = [n for n in self._nodes if n != name]
        if not others:
            return
        gateway_name = gateway if gateway else min(others)
        gateway_node = self._nodes[gateway_name]
        node.learn(gateway_node.ident, gateway_node.name)
        closest_name = self._route_from(gateway_node, node.ident)
        # Copy state from the nodes along the way (simplified: gateway
        # plus the closest node, which covers rows 0 and the leaf set).
        for source in {gateway_name, closest_name}:
            contacts = self.network.rpc(name, source, "get_state")
            for ident, contact in contacts:
                node.learn(ident, contact)
        entries = self.network.rpc(
            name, closest_name, "handoff", node.ident, node.name
        )
        for key, value in entries:
            node.store.put(key, value)
        # Announce to everyone in the new node's state.
        announcement = [(node.ident, node.name)]
        for ident, contact in list(node._all_contacts()):
            try:
                self.network.rpc(name, contact, "learn_from", announcement)
            except RpcError:
                continue

    def leave(self, name: str) -> None:
        """Graceful departure: hand each stored key to the remaining
        numerically closest node, then go.

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
                    others,
                    key=lambda n: numeric_distance(n.ident, digest),
                )
                self.network.rpc(name, target.name, "store_put", key, value)
        node.store.wipe_backend()
        self.network.unregister(name)
        del self._nodes[name]
        for survivor in self._nodes.values():
            survivor.forget(name)

    def stabilize_all(self, rounds: int = 1) -> None:
        """Periodic maintenance, run to convergence.

        Equivalent to the steady state of Pastry's upkeep: dead
        contacts are purged, leaf sets and routing tables are refilled
        with live nodes, and each key migrates to the node now
        numerically closest to it (what neighbouring leaf sets
        exchange when membership changes).  Done from global knowledge
        so churn tests converge quickly, the same shortcut
        :meth:`build` takes.
        """
        for _ in range(rounds):
            live = set(self._nodes)
            everyone = [
                (node.ident, node.name) for node in self._nodes.values()
            ]
            for node in self._nodes.values():
                dead = {
                    contact
                    for _, contact in node._all_contacts()
                    if contact not in live
                }
                for contact in dead:
                    node.forget(contact)
                for ident, contact in everyone:
                    node.learn(ident, contact)
            for node in list(self._nodes.values()):
                moved = node.store.pop_range(
                    lambda digest, me=node: min(
                        self._nodes.values(),
                        key=lambda n: numeric_distance(n.ident, digest),
                    )
                    is not me
                )
                for key, value in moved:
                    digest = key_digest(key)
                    owner = min(
                        self._nodes.values(),
                        key=lambda n: numeric_distance(n.ident, digest),
                    )
                    self.network.rpc(
                        node.name, owner.name, "store_put", key, value
                    )

    def fail(self, name: str) -> None:
        """Abrupt crash; survivors lazily forget the dead contact.
        Durable state stays on disk for :meth:`restart`."""
        node = self._nodes.get(name)
        if node is None:
            raise ReproError(f"unknown peer {name!r}")
        node.store.close_backend()
        self.network.unregister(name)
        del self._nodes[name]
        for survivor in self._nodes.values():
            survivor.forget(name)

    def _do_restart(self, name: str) -> None:
        """Recover a crashed peer: replay its durable log, rejoin via
        the join protocol's state copy and handoff, then re-home keys
        whose ownership moved while the peer was down."""
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
        node = PastryNode(name, self.network, store=store)
        self._nodes[name] = node
        stats = self.stats
        stats.restarts += 1
        stats.restart_replayed += len(store)
        others = [n for n in self._nodes if n != name]
        if not others:
            return
        gateway_node = self._nodes[min(others)]
        node.learn(gateway_node.ident, gateway_node.name)
        closest_name = self._route_from(gateway_node, node.ident)
        for source in {gateway_node.name, closest_name}:
            contacts = self.network.rpc(name, source, "get_state")
            for ident, contact in contacts:
                node.learn(ident, contact)
        # Reconcile: while the peer was down, writes in its range landed
        # on whichever neighbour was then numerically closest — on
        # either side of its identifier — so pull the handoff from
        # every leaf-set neighbour, not just the single closest node.
        sources = {contact for _, contact in node.leaf_set}
        sources.discard(name)
        for source in sorted(sources):
            entries = self.network.rpc(
                name, source, "handoff", node.ident, node.name
            )
            for key, value in entries:
                node.store.put(key, value)
                stats.restart_reconciled += 1
                stats.restart_repair_bytes += request_wire_size(key, value)
        announcement = [(node.ident, node.name)]
        for ident, contact in list(node._all_contacts()):
            try:
                self.network.rpc(name, contact, "learn_from", announcement)
            except RpcError:
                continue
        # Re-home: keys whose ownership moved while this peer was down.
        moved = node.store.pop_range(
            lambda digest: min(
                self._nodes.values(),
                key=lambda n: numeric_distance(n.ident, digest),
            )
            is not node
        )
        for key, value in moved:
            digest = key_digest(key)
            owner = min(
                self._nodes.values(),
                key=lambda n: numeric_distance(n.ident, digest),
            )
            self.network.rpc(
                name, owner.name, "store_put", key, value,
                size_bytes=request_wire_size(key, value),
                payload_bytes=data_wire_size(value),
            )
            stats.restart_rehomed += 1
            stats.restart_repair_bytes += request_wire_size(key, value)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route_from(self, start: PastryNode, ident: int) -> str:
        """Iterative prefix routing; meters overlay hops.

        Each hop strictly reduces numeric distance to the target (or
        lengthens the shared prefix), so this terminates at the
        numerically closest node.
        """
        current = (start.ident, start.name)
        for _ in range(N_DIGITS + 2 * LEAF_SET_SIDE + 8):
            nxt = self.network.rpc(
                self._gateway().name, current[1], "next_hop", ident
            )
            if nxt[1] == current[1]:
                return current[1]
            self.stats.hops += 1
            current = nxt
        raise ReproError(f"Pastry routing for {ident:x} did not converge")

    # ------------------------------------------------------------------
    # Oracle access
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> str:
        digest = key_digest(key)
        return min(
            self._nodes.values(),
            key=lambda node: numeric_distance(node.ident, digest),
        ).name

    def peers(self) -> list[str]:
        return sorted(self._nodes)

    def items(self) -> Iterator[tuple[str, Any]]:
        for node in self._nodes.values():
            yield from node.store.items()

    def key_count(self) -> int:
        """Stored keys via the non-decoding ``keys()`` walk."""
        return sum(len(node.store) for node in self._nodes.values())

    def node(self, name: str) -> PastryNode:
        """Direct peer access (tests only)."""
        return self._nodes[name]

    # ------------------------------------------------------------------
    # Substrate primitives
    # ------------------------------------------------------------------

    def route_owner(self, key: str, src: str | None = None) -> str:
        """Prefix routing from *src*'s own node (default: the
        gateway's); see :meth:`RoutedOverlay.route_owner`."""
        return self._route_from(self._route_start(src), key_digest(key))

    def _do_get(self, key: str) -> Any | None:
        owner = self._owner(key)
        return self.network.rpc(
            self._gateway().name, owner.name, "store_get", key,
            size_bytes=request_wire_size(key),
        )

    def _do_get_direct(self, peer: str, key: str) -> Any | None:
        # One point-to-point store read, no prefix routing.
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
