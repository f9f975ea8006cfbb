"""A Chord DHT over the simulated network.

Implements the protocol of Stoica et al. (SIGCOMM'01): a 160-bit
identifier ring, successor ownership, finger tables for O(log N)
routing, successor lists for fault tolerance, and the periodic
``stabilize`` / ``fix_fingers`` / ``check_predecessor`` loop.  Key
handoff moves stored objects on graceful join/leave, so the index
layers above survive membership changes.

Two construction modes:

* :meth:`ChordDht.build` wires a perfect ring directly — the right
  choice for experiments where the overlay is only a substrate.
* :meth:`ChordDht.join` runs the real join protocol, ending in one
  stabilisation round so the new peer's key range is routed to it;
  :meth:`ChordDht.stabilize_all` converges the fingers further.
"""

from __future__ import annotations

import bisect
from typing import Any

from repro.common.errors import ReproError
from repro.dht.hashing import (
    ID_BITS,
    ID_SPACE,
    key_digest,
    ring_between,
    ring_between_right_inclusive,
    ring_distance,
)
from repro.dht.overlay import OverlayNode, RoutedOverlay
from repro.dht.storage import PeerStore
from repro.net.simnet import RpcError, SimNetwork

#: Entries kept in each node's successor list (Bamboo uses a leaf set
#: of comparable size).
SUCCESSOR_LIST_LEN = 4


class _NodeRef:
    """(identifier, address) pair — what Chord nodes gossip about."""

    __slots__ = ("ident", "name")

    def __init__(self, ident: int, name: str) -> None:
        self.ident = ident
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NodeRef) and other.ident == self.ident

    def __hash__(self) -> int:
        return hash(self.ident)

    def __repr__(self) -> str:
        return f"_NodeRef({self.name})"


class ChordNode(OverlayNode):
    """One Chord peer: ring pointers, fingers and their RPCs."""

    def __init__(
        self,
        name: str,
        network: SimNetwork,
        store: PeerStore | None = None,
    ) -> None:
        super().__init__(name, network, store)
        self.ref = _NodeRef(self.ident, name)
        self.successors: list[_NodeRef] = [self.ref]
        self.predecessor: _NodeRef | None = None
        self.fingers: list[_NodeRef | None] = [None] * ID_BITS
        self._next_finger = 0

    def _call(self, target: _NodeRef, method: str, *args: Any, **kwargs: Any) -> Any:
        return self.network.rpc(self.name, target.name, method, *args, **kwargs)

    # ------------------------------------------------------------------
    # Read-only RPCs
    # ------------------------------------------------------------------

    def rpc_ping(self) -> bool:
        return True

    def rpc_get_successor(self) -> _NodeRef:
        # Nodes ping successor-list entries and skip dead ones, so the
        # returned successor is always live (or self).
        return self._first_live_successor()

    def rpc_get_successor_list(self) -> list[_NodeRef]:
        return list(self.successors)

    def rpc_get_predecessor(self) -> _NodeRef | None:
        return self.predecessor

    def rpc_closest_preceding(
        self, ident: int, avoid: tuple[str, ...] = ()
    ) -> _NodeRef:
        """The closest known live node strictly preceding *ident*
        (finger table first, then successor list), per the Chord paper.

        *avoid* lists peers the router already found dead; entries the
        node itself can see are dead (failed ping) are skipped too.
        """
        candidates: list[_NodeRef] = [
            ref for ref in self.fingers if ref is not None
        ]
        candidates.extend(self.successors)
        best = self.ref
        for ref in candidates:
            if ref.name in avoid:
                continue
            if ref != self.ref and not self.network.is_registered(ref.name):
                continue
            if ring_between(ref.ident, self.ident, ident) and ring_between(
                ref.ident, best.ident, ident
            ):
                best = ref
        return best

    # ------------------------------------------------------------------
    # Key handoff and ring maintenance RPCs
    # ------------------------------------------------------------------

    def rpc_handoff(self, new_pred_ident: int, requester: _NodeRef) -> list:
        """Give the joining predecessor the keys it now owns.

        The requester owns digests in (old_predecessor, requester], i.e.
        everything this node stores that does *not* fall in
        (requester, self]."""
        def belongs_to_requester(digest: int) -> bool:
            return not ring_between_right_inclusive(
                digest, new_pred_ident, self.ident
            )

        return self.store.pop_range(belongs_to_requester)

    def rpc_absorb(self, entries: list) -> None:
        """Accept keys pushed by a gracefully departing neighbour."""
        for key, value in entries:
            self.store.put(key, value)

    def rpc_notify(self, candidate: _NodeRef) -> None:
        """Chord ``notify``: *candidate* believes it is our predecessor."""
        if self.predecessor is None or ring_between(
            candidate.ident, self.predecessor.ident, self.ident
        ):
            self.predecessor = candidate

    # ------------------------------------------------------------------
    # Periodic protocol
    # ------------------------------------------------------------------

    def _first_live_successor(self) -> _NodeRef:
        """Drop dead entries from the successor list head."""
        while self.successors:
            head = self.successors[0]
            if head == self.ref or self.network.is_registered(head.name):
                return head
            self.successors.pop(0)
        self.successors = [self.ref]
        return self.ref

    def stabilize(self) -> None:
        """One round of Chord stabilization."""
        successor = self._first_live_successor()
        if successor == self.ref:
            if self.predecessor is not None and self.predecessor != self.ref:
                if self.network.is_registered(self.predecessor.name):
                    self.successors = [self.predecessor]
                    successor = self.predecessor
        try:
            their_pred = self._call(successor, "get_predecessor")
        except RpcError:
            if self.successors:
                self.successors.pop(0)
            return
        if (
            their_pred is not None
            and their_pred != self.ref
            and ring_between(their_pred.ident, self.ident, successor.ident)
            and self.network.is_registered(their_pred.name)
        ):
            successor = their_pred
        try:
            succ_list = self._call(successor, "get_successor_list")
            self._call(successor, "notify", self.ref)
        except RpcError:
            return
        merged = [successor] + [ref for ref in succ_list if ref != self.ref]
        self.successors = merged[:SUCCESSOR_LIST_LEN]

    def fix_fingers(self, find_successor) -> None:
        """Refresh one finger-table entry (round-robin)."""
        index = self._next_finger
        self._next_finger = (self._next_finger + 1) % ID_BITS
        start = (self.ident + (1 << index)) % ID_SPACE
        self.fingers[index] = find_successor(start)

    def check_predecessor(self) -> None:
        """Clear the predecessor pointer when it stops answering."""
        if self.predecessor is None or self.predecessor == self.ref:
            return
        if not self.network.is_registered(self.predecessor.name):
            self.predecessor = None


class ChordDht(RoutedOverlay):
    """The :class:`~repro.dht.api.Dht` facade over a Chord ring.

    *replication* > 1 stores each key on the owner plus that many minus
    one of its ring successors (DHash-style), so data survives crashes
    of fewer than *replication* consecutive peers; run
    :meth:`repair_replicas` after churn to restore the invariant.
    """

    prefix = "chord"
    node_class = ChordNode

    def __init__(
        self,
        network: SimNetwork | None = None,
        replication: int = 1,
        durability: str | None = None,
        data_dir: str | None = None,
    ) -> None:
        if replication < 1:
            raise ReproError(
                f"replication must be >= 1, got {replication}"
            )
        super().__init__(network, durability, data_dir)
        self.replication = replication

    # ------------------------------------------------------------------
    # Construction and membership
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        n_peers: int,
        network: SimNetwork | None = None,
        replication: int = 1,
        durability: str | None = None,
        data_dir: str | None = None,
    ) -> "ChordDht":
        """Create a converged ring of *n_peers* directly."""
        return cls(network, replication, durability, data_dir)._populate(
            n_peers
        )

    def rewire(self) -> None:
        """Recompute every node's ring state from global knowledge.

        Used after bulk construction; the incremental protocol
        (:meth:`join` + :meth:`stabilize_all`) reaches the same state.
        """
        refs = sorted(
            (node.ref for node in self._nodes.values()),
            key=lambda ref: ref.ident,
        )
        count = len(refs)
        by_ident = [ref.ident for ref in refs]
        for position, ref in enumerate(refs):
            node = self._nodes[ref.name]
            node.successors = [
                refs[(position + offset) % count]
                for offset in range(1, min(SUCCESSOR_LIST_LEN, count) + 1)
            ] or [ref]
            node.predecessor = refs[(position - 1) % count]
            for index in range(ID_BITS):
                start = (ref.ident + (1 << index)) % ID_SPACE
                slot = bisect.bisect_left(by_ident, start) % count
                node.fingers[index] = refs[slot]

    def _enter(
        self, node: ChordNode, gateway: ChordNode, rejoining: bool
    ) -> list:
        """The Chord join: find the successor, take over the key range
        this node now owns (``handoff``), ``notify``, and stabilise the
        ring once so routing reaches the new owner."""
        if rejoining:
            # From live membership, not a routed lookup: peers that
            # never stabilized during the outage still hold refs to the
            # old incarnation, so a route for this ident can terminate
            # on the half-initialised node itself.  (The oracle stands
            # in for routing here, as in repair_replicas.)
            successor = self._owner_of_digest(
                (node.ident + 1) % ID_SPACE
            ).ref
        else:
            successor = self._route(gateway.ref, node.ident)
        node.successors = [successor]
        entries = self.network.rpc(
            node.name, successor.name, "handoff", node.ident, node.ref
        )
        for key, value in entries:
            node.store.put(key, value)
        self.network.rpc(node.name, successor.name, "notify", node.ref)
        # Re-converge the ring: until the predecessor adopts the new
        # node as its successor, routing bypasses it — and with it the
        # key range the handoff just moved onto it.
        self.stabilize_all(1)
        return entries

    def _hand_off(self, node: ChordNode) -> None:
        """Push every key to the successor in one ``absorb``."""
        successor = node._first_live_successor()
        if successor != node.ref:
            entries = node.store.pop_range(lambda digest: True)
            self.network.rpc(node.name, successor.name, "absorb", entries)

    def stabilize_all(self, rounds: int = 1) -> None:
        """Drive the periodic protocol on every node *rounds* times."""
        for _ in range(rounds):
            for node in list(self._nodes.values()):
                node.stabilize()
                node.check_predecessor()
            for node in list(self._nodes.values()):
                for _ in range(8):  # refresh a few fingers per round
                    node.fix_fingers(
                        lambda ident, start=node: self._route(start.ref, ident)
                    )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _rpc_insistent(self, src: str, dst: str, method: str, *args: Any):
        """RPC with bounded retries for *transient* message drops.

        A dead peer fails every attempt and the error propagates, so
        churn handling is unaffected; a lossy link usually succeeds on
        a retry, so random drops do not get misdiagnosed as failures
        (which would misroute keys around their true owner).
        """
        last: RpcError | None = None
        for _ in range(3):
            try:
                return self.network.rpc(src, dst, method, *args)
            except RpcError as error:
                last = error
                if not self.network.is_registered(dst):
                    break  # genuinely dead; do not burn retries
        assert last is not None
        raise last

    def _route(self, start: _NodeRef, ident: int) -> _NodeRef:
        """Iterative find_successor from *start*; meters overlay hops.

        Dead hops (stale fingers after churn) are added to an avoid set
        and routing resumes from the gateway, mirroring how a real
        client retries around failures.
        """
        current = start
        avoid: set[str] = set()
        for _ in range(4 * ID_BITS):  # generous loop bound
            try:
                successor = self._rpc_insistent(
                    current.name, current.name, "get_successor"
                )
            except RpcError:
                avoid.add(current.name)
                current = self._gateway().ref
                continue
            if current == successor or ring_between_right_inclusive(
                ident, current.ident, successor.ident
            ):
                return successor
            try:
                nxt = self._rpc_insistent(
                    start.name,
                    current.name,
                    "closest_preceding",
                    ident,
                    tuple(avoid),
                )
            except RpcError:
                avoid.add(current.name)
                current = self._gateway().ref
                continue
            if nxt == current:
                return successor
            self.stats.hops += 1
            current = nxt
        raise ReproError(f"routing for {ident:x} did not converge")

    def find_successor(self, ident: int) -> str:
        """Public routed successor lookup (address of the owner)."""
        return self._route(self._gateway().ref, ident).name

    def route_owner(self, key: str, src: str | None = None) -> str:
        """Greedy finger routing from *src*'s own ref (default: the
        gateway's); see :meth:`RoutedOverlay.route_owner`."""
        return self._route(self._route_start(src).ref, key_digest(key)).name

    # ------------------------------------------------------------------
    # Ownership and replication
    # ------------------------------------------------------------------

    def _owner_of_digest(self, digest: int) -> ChordNode:
        """Ring successor of *digest* among live nodes (oracle)."""
        return min(
            self._nodes.values(),
            key=lambda node: ring_distance(digest, node.ident),
        )

    def _replica_targets(self, owner: ChordNode) -> list[str]:
        """The owner plus its next ``replication - 1`` live successors."""
        holders = [owner.name]
        for ref in owner.successors:
            if len(holders) >= self.replication:
                break
            if ref.name not in holders and self.network.is_registered(
                ref.name
            ):
                holders.append(ref.name)
        return holders

    def repair_replicas(self) -> int:
        """Restore the replication invariant after churn.

        Every node re-homes keys it holds: the current owner and its
        successor set receive fresh copies, and copies held by nodes no
        longer in a key's replica set are dropped.  Returns the number
        of copies written.  (Each node can determine ownership by
        routing; the oracle stands in for that routing here.)
        """
        written = 0
        # One authoritative value per key, from any holder.
        for key, value in dict(self.items()).items():
            owner = self._owner_of_digest(key_digest(key))
            holders = set(self._replica_targets(owner))
            for name, node in self._nodes.items():
                if name in holders:
                    if key not in node.store:
                        node.store.put(key, value)
                        written += 1
                elif key in node.store:
                    node.store.remove(key)
        return written
