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
* :meth:`ChordDht.join` runs the real join protocol; tests drive
  :meth:`ChordDht.stabilize_all` to convergence afterwards.
"""

from __future__ import annotations

import bisect
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
from repro.dht.hashing import (
    ID_BITS,
    ID_SPACE,
    key_digest,
    node_id_from_name,
    ring_between,
    ring_between_right_inclusive,
)
from repro.dht.storage import PeerStore
from repro.net.message import Message
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


class ChordNode:
    """One Chord peer: routing state, storage, and RPC handlers."""

    def __init__(
        self,
        name: str,
        network: SimNetwork,
        store: PeerStore | None = None,
    ) -> None:
        self.name = name
        self.ident = node_id_from_name(name)
        self.ref = _NodeRef(self.ident, name)
        self.network = network
        self.store = store if store is not None else PeerStore()
        self.successors: list[_NodeRef] = [self.ref]
        self.predecessor: _NodeRef | None = None
        self.fingers: list[_NodeRef | None] = [None] * ID_BITS
        self._next_finger = 0
        network.register(name, self)

    # ------------------------------------------------------------------
    # RPC plumbing
    # ------------------------------------------------------------------

    def handle_rpc(self, message: Message) -> Any:
        args, kwargs = message.payload
        method = getattr(self, "rpc_" + message.msg_type, None)
        if method is None:
            raise RpcError(f"unknown RPC {message.msg_type!r}")
        return method(*args, **kwargs)

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
    # Storage RPCs
    # ------------------------------------------------------------------

    def rpc_store_get(self, key: str) -> Any | None:
        return self.store.get(key)

    def rpc_store_put(self, key: str, value: Any) -> None:
        self.store.put(key, value)

    def rpc_store_remove(self, key: str) -> Any:
        return self.store.remove(key)

    def rpc_store_contains(self, key: str) -> bool:
        return key in self.store

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


class ChordDht(RoutedOverlay, Dht):
    """The :class:`~repro.dht.api.Dht` facade over a Chord ring.

    *replication* > 1 stores each key on the owner plus that many minus
    one of its ring successors (DHash-style), so data survives crashes
    of fewer than *replication* consecutive peers; run
    :meth:`repair_replicas` after churn to restore the invariant.
    """

    def __init__(
        self,
        network: SimNetwork | None = None,
        replication: int = 1,
        durability: str | None = None,
        data_dir: str | None = None,
    ) -> None:
        super().__init__()
        if replication < 1:
            raise ReproError(
                f"replication must be >= 1, got {replication}"
            )
        self.network = network if network is not None else SimNetwork()
        self.replication = replication
        #: Durable backend kind every peer store journals into
        #: (``None``: in-memory only, no restart support).
        self.durability = durability
        self.data_dir = (
            resolve_data_dir(data_dir, "chord")
            if durability is not None
            else None
        )
        self._nodes: dict[str, ChordNode] = {}

    def _new_store(self, name: str) -> PeerStore:
        backend = None
        if self.durability is not None:
            backend = create_store_backend(
                self.durability, backend_path(self.data_dir, name)
            )
        return PeerStore(backend=backend)

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
        if n_peers < 1:
            raise ReproError(f"n_peers must be >= 1, got {n_peers}")
        dht = cls(network, replication, durability, data_dir)
        for index in range(n_peers):
            name = f"chord-{index:04d}"
            dht._nodes[name] = ChordNode(
                name, dht.network, store=dht._new_store(name)
            )
        dht.rewire()
        return dht

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

    def join(self, name: str, gateway: str | None = None) -> None:
        """Run the Chord join protocol for a new peer called *name*."""
        if name in self._nodes:
            raise ReproError(f"peer {name!r} already in the ring")
        node = ChordNode(name, self.network, store=self._new_store(name))
        self._nodes[name] = node
        others = [n for n in self._nodes.values() if n.name != name]
        if not others:
            return
        gateway_node = self._nodes[gateway] if gateway else others[0]
        successor = self._route(gateway_node.ref, node.ident)
        node.successors = [successor]
        node.predecessor = None
        # Take over the key range this node now owns.
        entries = self.network.rpc(
            name, successor.name, "handoff", node.ident, node.ref
        )
        for key, value in entries:
            node.store.put(key, value)
        self.network.rpc(name, successor.name, "notify", node.ref)

    def leave(self, name: str) -> None:
        """Graceful departure: push keys to the successor, then go.

        The peer's durable state is wiped: a handed-off key must never
        resurrect through a later :meth:`restart`.
        """
        node = self._nodes.get(name)
        if node is None:
            raise ReproError(f"unknown peer {name!r}")
        successor = node._first_live_successor()
        if successor != node.ref:
            entries = node.store.pop_range(lambda digest: True)
            self.network.rpc(name, successor.name, "absorb", entries)
        node.store.wipe_backend()
        self.network.unregister(name)
        del self._nodes[name]

    def fail(self, name: str) -> None:
        """Abrupt crash: the peer and its in-memory data vanish.

        The durable backend's file handle is closed but its state
        stays on disk — that is what :meth:`restart` replays.
        """
        node = self._nodes.get(name)
        if node is None:
            raise ReproError(f"unknown peer {name!r}")
        node.store.close_backend()
        self.network.unregister(name)
        del self._nodes[name]

    def _do_restart(self, name: str) -> None:
        """Recover a crashed peer from its durable log and rejoin.

        Three phases, with repair traffic proportional to ownership
        churn, not store size:

        1. *Replay* — rebuild the store from the peer's own durable
           backend (local disk, zero network bytes).
        2. *Reconcile* — the standard join handoff pulls back keys
           written into this peer's range while it was down.
        3. *Re-home* — keys the peer still holds but no longer owns
           (the ring changed underneath it) are pushed to their
           current owners and dropped locally.
        """
        if name in self._nodes:
            raise ReproError(f"peer {name!r} is already live")
        if self.durability is None:
            raise ReproError(
                "restart requires a durable backend; build the ring "
                "with durability=..."
            )
        backend = create_store_backend(
            self.durability, backend_path(self.data_dir, name)
        )
        store = PeerStore.recover(backend)
        node = ChordNode(name, self.network, store=store)
        self._nodes[name] = node
        stats = self.stats
        stats.restarts += 1
        stats.restart_replayed += len(store)
        others = [n for n in self._nodes.values() if n.name != name]
        if not others:
            return
        # The rejoin successor comes from live membership, not a routed
        # lookup: peers that never stabilized during the outage still
        # hold refs to the old incarnation, so a route for this ident
        # can terminate on the half-initialised node itself.  (The
        # oracle stands in for routing here, as in repair_replicas.)
        by_ident = sorted(others, key=lambda n: n.ident)
        successor = next(
            (n for n in by_ident if n.ident > node.ident), by_ident[0]
        ).ref
        node.successors = [successor]
        entries = self.network.rpc(
            name, successor.name, "handoff", node.ident, node.ref
        )
        for key, value in entries:
            node.store.put(key, value)
            stats.restart_reconciled += 1
            stats.restart_repair_bytes += request_wire_size(key, value)
        self.network.rpc(name, successor.name, "notify", node.ref)
        # Re-converge the ring: until the predecessor adopts the
        # restarted node as its successor, routing bypasses it (join
        # leaves this to the caller; restart must restore service).
        self.stabilize_all(1)
        self._rehome_after_restart(node)

    def _rehome_after_restart(self, node: ChordNode) -> None:
        """Push keys whose ownership moved while *node* was down."""
        def misplaced(digest: int) -> bool:
            owner = self._nodes[self._successor_name(digest)]
            return node.name not in self._replica_targets(owner)

        stats = self.stats
        for key, value in node.store.pop_range(misplaced):
            owner_name = self._successor_name(key_digest(key))
            self.network.rpc(
                node.name, owner_name, "store_put", key, value,
                size_bytes=request_wire_size(key, value),
                payload_bytes=data_wire_size(value),
            )
            stats.restart_rehomed += 1
            stats.restart_repair_bytes += request_wire_size(key, value)

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
    # Oracle access
    # ------------------------------------------------------------------

    def _successor_name(self, digest: int) -> str:
        """Ring successor of *digest* among live nodes (oracle)."""
        refs = sorted(
            (node.ident, node.name) for node in self._nodes.values()
        )
        idents = [ident for ident, _ in refs]
        index = bisect.bisect_left(idents, digest)
        if index == len(idents):
            index = 0
        return refs[index][1]

    def peer_of(self, key: str) -> str:
        return self._successor_name(key_digest(key))

    def peers(self) -> list[str]:
        return sorted(self._nodes)

    def items(self) -> Iterator[tuple[str, Any]]:
        seen: set[str] = set()
        for node in self._nodes.values():
            for key, value in node.store.items():
                if key in seen:
                    continue  # replica copies count once
                seen.add(key)
                yield key, value

    def key_count(self) -> int:
        """Distinct stored keys via the non-decoding ``keys()`` walk
        (replica copies count once, same rule as :meth:`items`)."""
        seen: set[str] = set()
        for node in self._nodes.values():
            seen.update(node.store.keys())
        return len(seen)

    def node(self, name: str) -> ChordNode:
        """Direct access to a peer (tests and invariant checks)."""
        return self._nodes[name]

    # ------------------------------------------------------------------
    # Substrate primitives
    # ------------------------------------------------------------------

    def _do_get(self, key: str) -> Any | None:
        owner = self._owner(key)
        for target in self._replica_targets(owner):
            value = self.network.rpc(
                self._gateway().name, target, "store_get", key,
                size_bytes=request_wire_size(key),
            )
            if value is not None:
                return value
        return None

    def _do_get_direct(self, peer: str, key: str) -> Any | None:
        # One point-to-point store read, no routing, no hop metering:
        # this is exactly what a learned shortcut buys.
        return self.network.rpc(
            self._gateway().name, peer, "store_get", key,
            size_bytes=request_wire_size(key),
        )

    def _replica_targets(self, owner: ChordNode) -> list[str]:
        """The owner plus its next ``replication - 1`` live successors."""
        targets = [owner.name]
        for ref in owner.successors:
            if len(targets) >= self.replication:
                break
            if ref.name not in targets and self.network.is_registered(
                ref.name
            ):
                targets.append(ref.name)
        return targets

    def _do_put(self, key: str, value: Any) -> None:
        owner = self._owner(key)
        for target in self._replica_targets(owner):
            self.network.rpc(
                self._gateway().name, target, "store_put", key, value,
                size_bytes=request_wire_size(key, value),
                payload_bytes=data_wire_size(value),
            )

    def _do_remove(self, key: str) -> Any:
        owner = self._owner(key)
        removed: Any = None
        found = False
        for target in self._replica_targets(owner):
            if self.network.rpc(
                self._gateway().name, target, "store_contains", key,
                size_bytes=request_wire_size(key),
            ):
                value = self.network.rpc(
                    self._gateway().name, target, "store_remove", key,
                    size_bytes=request_wire_size(key),
                )
                if not found:
                    removed = value
                    found = True
        if not found:
            raise DhtKeyError(f"key {key!r} does not exist")
        return removed

    def rewrite_local(self, key: str, value: Any) -> None:
        """Zero-cost in-place rewrite by whichever peer holds the key.

        On a routed substrate this models the storing peer updating its
        own store — no routing, no wire messages (the base-class
        implementation would route a contains + put).  All replica
        copies are refreshed.
        """
        holders = [
            node for node in self._nodes.values() if key in node.store
        ]
        if not holders:
            raise DhtKeyError(
                f"rewrite_local of absent key {key!r}; a routed put is "
                "required to create it"
            )
        for node in holders:
            node.store.put(key, value)

    def _do_contains(self, key: str) -> bool:
        owner = self._owner(key)
        return any(
            self.network.rpc(
                self._gateway().name, target, "store_contains", key,
                size_bytes=request_wire_size(key),
            )
            for target in self._replica_targets(owner)
        )

    def repair_replicas(self) -> int:
        """Restore the replication invariant after churn.

        Every node re-homes keys it holds: the current owner and its
        successor set receive fresh copies, and copies held by nodes no
        longer in a key's replica set are dropped.  Returns the number
        of copies written.  (Each node can determine ownership by
        routing; the oracle stands in for that routing here.)
        """
        if self.replication < 1:
            return 0
        written = 0
        # Gather one authoritative value per key from any holder.
        values: dict[str, Any] = {}
        for node in self._nodes.values():
            for key, value in node.store.items():
                values.setdefault(key, value)
        for key, value in values.items():
            owner = self._nodes[self.peer_of(key)]
            targets = set(self._replica_targets(owner))
            for name, node in self._nodes.items():
                if name in targets:
                    if key not in node.store:
                        node.store.put(key, value)
                        written += 1
                elif key in node.store:
                    node.store.remove(key)
        return written
