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

from repro.common.errors import ReproError
from repro.dht.hashing import ID_BITS, key_digest
from repro.dht.overlay import OverlayNode, RoutedOverlay
from repro.dht.storage import PeerStore
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


class PastryNode(OverlayNode):
    """One Pastry peer: routing table, leaf set and their RPCs."""

    def __init__(
        self,
        name: str,
        network: SimNetwork,
        store: PeerStore | None = None,
    ) -> None:
        super().__init__(name, network, store)
        self.digits = digits_of(self.ident)
        # routing_table[row][column] -> (ident, name) | None
        self.routing_table: list[list[tuple[int, str] | None]] = [
            [None] * (2**DIGIT_BITS) for _ in range(N_DIGITS)
        ]
        self.leaf_set: list[tuple[int, str]] = []

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
    # Routing RPCs
    # ------------------------------------------------------------------

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

    def rpc_handoff(self, joiner_ident: int, joiner_name: str) -> list:
        """Give a newly joined neighbour the keys now closer to it."""
        return self.store.pop_range(
            lambda digest: numeric_distance(digest, joiner_ident)
            < numeric_distance(digest, self.ident)
        )


class PastryDht(RoutedOverlay):
    """The :class:`~repro.dht.api.Dht` facade over a Pastry overlay."""

    prefix = "pastry"
    node_class = PastryNode

    def rewire(self) -> None:
        """Teach every node every live contact (fully populated state)."""
        everyone = [(node.ident, node.name) for node in self._nodes.values()]
        for node in self._nodes.values():
            for ident, name in everyone:
                node.learn(ident, name)

    def _enter(
        self, node: PastryNode, gateway: PastryNode, rejoining: bool
    ) -> list:
        """The Pastry join: route to the closest node, copy state, take
        over the key range, and announce the newcomer."""
        name = node.name
        node.learn(gateway.ident, gateway.name)
        closest = self._route_from(gateway, node.ident)
        # Copy state from the nodes along the way (simplified: gateway
        # plus the closest node, which covers rows 0 and the leaf set).
        for source in sorted({gateway.name, closest}):
            for ident, contact in self.network.rpc(name, source, "get_state"):
                node.learn(ident, contact)
        sources = [closest]
        if rejoining:
            # While the peer was down, writes in its range landed on
            # whichever neighbour was then numerically closest — on
            # either side of its identifier — so pull the handoff from
            # every leaf-set neighbour, not just the single closest.
            sources = sorted({contact for _, contact in node.leaf_set} - {name})
        pulled = []
        for source in sources:
            pulled += self.network.rpc(
                name, source, "handoff", node.ident, name
            )
        for key, value in pulled:
            node.store.put(key, value)
        # Announce to everyone in the new node's state.
        announcement = [(node.ident, name)]
        for _, contact in list(node._all_contacts()):
            try:
                self.network.rpc(name, contact, "learn_from", announcement)
            except RpcError:
                continue
        return pulled

    def _forget(self, name: str) -> None:
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
            for node in self._nodes.values():
                dead = {
                    contact
                    for _, contact in node._all_contacts()
                    if contact not in self._nodes
                }
                for contact in dead:
                    node.forget(contact)
            self.rewire()
            for node in list(self._nodes.values()):
                self._rehome(node)

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

    def route_owner(self, key: str, src: str | None = None) -> str:
        """Prefix routing from *src*'s own node (default: the
        gateway's); see :meth:`RoutedOverlay.route_owner`."""
        return self._route_from(self._route_start(src), key_digest(key))

    def _owner_of_digest(self, digest: int) -> PastryNode:
        """The numerically closest live node (oracle)."""
        return min(
            self._nodes.values(),
            key=lambda node: numeric_distance(node.ident, digest),
        )
