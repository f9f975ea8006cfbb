"""What the routed overlays (Chord, Pastry, Kademlia) share.

A routed overlay is a routing table over one storage node:

* :class:`OverlayNode` is that node — a
  :class:`~repro.dht.peer.KeyValuePeer` registered on a
  :class:`~repro.net.simnet.SimNetwork`, serving the four ``store_*``
  RPCs.  An overlay's node class adds routing state and routing RPCs,
  nothing about storage.
* :class:`RoutedOverlay` is the :class:`~repro.dht.api.Dht` facade over
  a set of such nodes: construction, membership (``join`` / ``leave`` /
  ``fail`` / restart), the oracle views and the storage primitives,
  each written once over :meth:`RoutedOverlay._replica_targets`.  An
  overlay supplies its identifier metric (:meth:`_owner_of_digest`),
  :meth:`route_owner`, the neighbour exchange of a (re)joining or
  leaving peer, and its convergence shortcuts (``rewire``,
  ``stabilize_all``).

A routed substrate executes one batch element as a *chain* of
dependent RPCs — every routing hop plus the storage exchange.  Chains
of one batch are independent, so the whole batch runs inside a single
:meth:`~repro.net.simnet.SimNetwork.message_round`: each element's
RPC latencies sum along its own chain, and the event clock advances by
the slowest chain instead of the sum.  That is the structural latency
model of round-parallel dissemination — a recursion level costs one
message round, whatever its fan-out.

Elements run in deterministic submission order (simulated time, not
wall-clock, is where an overlay's parallelism shows), and a peer that
turns out dead or partitioned mid-batch fails only its own slot: the
outcome list carries a :class:`~repro.dht.api.BatchFailure` there so
retry wrappers can re-issue exactly the failed subset.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Any

from repro.common.errors import DhtKeyError, NodeUnreachableError, ReproError
from repro.dht.api import Dht, _capture, data_wire_size, request_wire_size
from repro.dht.durable import open_peer_store, peer_data_dir
from repro.dht.hashing import key_digest, node_id_from_name
from repro.dht.peer import KeyValuePeer
from repro.dht.storage import PeerStore
from repro.net.message import Message
from repro.net.simnet import RpcError, SimNetwork


class OverlayNode(KeyValuePeer):
    """One simulated peer: an identifier, a network address and the
    storage server behind the ``store_*`` RPCs."""

    def __init__(
        self,
        name: str,
        network: SimNetwork,
        store: PeerStore | None = None,
    ) -> None:
        super().__init__(name, store)
        self.ident = node_id_from_name(name)
        self.network = network
        network.register(name, self)

    def handle_rpc(self, message: Message) -> Any:
        args, kwargs = message.payload
        method = getattr(self, "rpc_" + message.msg_type, None)
        if method is None:
            raise RpcError(f"unknown RPC {message.msg_type!r}")
        return method(*args, **kwargs)

    def rpc_store_get(self, key: str) -> Any | None:
        return self.serve("get", key)

    def rpc_store_put(self, key: str, value: Any) -> None:
        self.serve("put", key, value)

    def rpc_store_remove(self, key: str) -> Any:
        return self.serve("remove", key)

    def rpc_store_contains(self, key: str) -> bool:
        return self.serve("contains", key)


class RoutedOverlay(Dht):
    """The :class:`Dht` facade over :class:`OverlayNode` peers on one
    ``network``, routed to by :meth:`route_owner`."""

    #: Names the built peers (``<prefix>-0000``) and the data directory.
    prefix: str
    #: The overlay's :class:`OverlayNode` subclass.
    node_class: type[OverlayNode]

    def __init__(
        self,
        network: SimNetwork | None = None,
        durability: str | None = None,
        data_dir: str | None = None,
    ) -> None:
        super().__init__()
        self.network = network if network is not None else SimNetwork()
        #: Durable backend kind every peer store journals into
        #: (``None``: in-memory only, no restart support).
        self.durability = durability
        self.data_dir = peer_data_dir(durability, data_dir, self.prefix)
        self._nodes: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # What an overlay supplies
    # ------------------------------------------------------------------

    def route_owner(self, key: str, src: str | None = None) -> str:
        """Route to the peer responsible for *key*; returns its name.

        The route starts at peer *src*'s own overlay position (its
        fingers, buckets or routing table) — what a peer forwarding a
        subquery does — or at the gateway when *src* is ``None``, which
        is how every client-facing primitive resolves its owner.
        Overlay hops are metered on ``stats.hops``; the DHT-lookup
        itself is the caller's to meter.  Raises
        :class:`NodeUnreachableError` when *src* is no longer a live
        peer or the route finds no live owner.
        """
        raise NotImplementedError

    def _owner_of_digest(self, digest: int) -> Any:
        """The live node responsible for *digest* under the overlay's
        identifier metric, from global knowledge (the oracle)."""
        raise NotImplementedError

    def rewire(self) -> None:
        """Recompute every node's routing state from global knowledge —
        the steady state the join protocol converges to, reached
        directly so large overlays construct quickly."""
        raise NotImplementedError

    def _enter(self, node: Any, gateway: Any, rejoining: bool) -> list:
        """Neighbour exchange of a peer entering through *gateway*:
        learn routing state, pull the keys *node* now owns, announce
        it.  Returns the pulled ``(key, value)`` pairs.  *rejoining*
        marks a restart, which must leave the overlay serving again
        without the caller stabilising it."""
        raise NotImplementedError

    def _hand_off(self, node: Any) -> None:
        """Push a gracefully leaving peer's keys to whoever owns them
        next.  *node* is already out of the membership but still
        registered on the network.  The default re-homes key by key."""
        if self._nodes:
            self._rehome(node)

    def _forget(self, name: str) -> None:
        """Purge a departed peer from the survivors' routing state, for
        overlays that do so eagerly."""

    def _replica_targets(self, owner: Any) -> list[str]:
        """The peers holding a copy of what *owner* owns, owner first."""
        return [owner.name]

    # ------------------------------------------------------------------
    # Construction and membership
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        n_peers: int,
        network: SimNetwork | None = None,
        durability: str | None = None,
        data_dir: str | None = None,
    ) -> "RoutedOverlay":
        """Create a converged overlay of *n_peers* directly."""
        return cls(network, durability, data_dir)._populate(n_peers)

    def _populate(self, n_peers: int) -> "RoutedOverlay":
        if n_peers < 1:
            raise ReproError(f"n_peers must be >= 1, got {n_peers}")
        for index in range(n_peers):
            self._spawn(f"{self.prefix}-{index:04d}")
        self.rewire()
        return self

    def _spawn(self, name: str, recover: bool = False) -> Any:
        store = open_peer_store(
            self.durability, self.data_dir, name, recover=recover
        )
        node = self._nodes[name] = self.node_class(name, self.network, store)
        return node

    def _entry_point(self, gateway: str | None = None) -> Any | None:
        """The live node a (re)joining peer enters through: *gateway*,
        else the client gateway; ``None`` on an empty overlay."""
        if gateway is None:
            return self._gateway() if self._nodes else None
        if gateway not in self._nodes:
            raise ReproError(f"unknown gateway peer {gateway!r}")
        return self._nodes[gateway]

    def join(self, name: str, gateway: str | None = None) -> None:
        """Run the overlay's join protocol for a new peer *name*,
        entering through *gateway* (default: the client gateway)."""
        if name in self._nodes:
            raise ReproError(f"peer {name!r} already joined")
        entry = self._entry_point(gateway)
        node = self._spawn(name)
        if entry is not None:
            self._enter(node, entry, rejoining=False)

    def _depart(self, name: str) -> Any:
        node = self._nodes.pop(name, None)
        if node is None:
            raise ReproError(f"unknown peer {name!r}")
        return node

    def leave(self, name: str) -> None:
        """Graceful departure: hand the stored keys on, then go.

        The peer's durable state is wiped: a handed-off key must never
        resurrect through a later :meth:`restart`.
        """
        node = self._depart(name)
        self._hand_off(node)
        node.store.wipe_backend()
        self.network.unregister(name)
        self._forget(name)

    def fail(self, name: str) -> None:
        """Abrupt crash: the peer and its in-memory data vanish.

        The durable backend's file handle is closed but its state
        stays on disk — that is what :meth:`restart` replays.
        """
        node = self._depart(name)
        node.store.close_backend()
        self.network.unregister(name)
        self._forget(name)

    def _do_restart(self, name: str) -> None:
        """Recover a crashed peer from its durable log and rejoin.

        Three phases, with repair traffic proportional to ownership
        churn, not store size:

        1. *Replay* — rebuild the store from the peer's own durable
           backend (local disk, zero network bytes).
        2. *Reconcile* — the overlay's neighbour exchange pulls back
           keys written into this peer's range while it was down.
        3. *Re-home* — keys the peer still holds but no longer owns
           (membership changed underneath it) are pushed to their
           current owners and dropped locally.
        """
        if name in self._nodes:
            raise ReproError(f"peer {name!r} is already live")
        entry = self._entry_point()
        node = self._spawn(name, recover=True)
        stats = self.stats
        stats.restarts += 1
        stats.restart_replayed += len(node.store)
        if entry is None:
            return
        for key, value in self._enter(node, entry, rejoining=True):
            stats.restart_reconciled += 1
            stats.restart_repair_bytes += request_wire_size(key, value)
        self._rehome(node, repair=True)

    def _rehome(self, node: Any, repair: bool = False) -> None:
        """Push every key *node* holds without being one of its replica
        targets to the key's owner.

        Upkeep traffic (leave, stabilisation) is modelled unsized;
        *repair* marks a restart's re-home, which is sized on the wire
        and counted on the ``restart_*`` meters.
        """
        def misplaced(digest: int) -> bool:
            owner = self._owner_of_digest(digest)
            return node.name not in self._replica_targets(owner)

        stats = self.stats
        for key, value in node.store.pop_range(misplaced):
            owner = self._owner_of_digest(key_digest(key)).name
            if repair:
                stats.restart_rehomed += 1
                stats.restart_repair_bytes += self._sized_put(
                    node.name, owner, key, value
                )
            else:
                self.network.rpc(node.name, owner, "store_put", key, value)

    # ------------------------------------------------------------------
    # Oracle access
    # ------------------------------------------------------------------

    def peer_of(self, key: str) -> str:
        return self._owner_of_digest(key_digest(key)).name

    def peers(self) -> list[str]:
        return sorted(self._nodes)

    def items(self) -> Iterator[tuple[str, Any]]:
        seen: set[str] = set()
        for node in self._nodes.values():
            for key, value in node.store.items():
                if key not in seen:  # replica copies count once
                    seen.add(key)
                    yield key, value

    def key_count(self) -> int:
        """Distinct stored keys via the non-decoding ``keys()`` walk
        (replica copies count once, same rule as :meth:`items`)."""
        seen: set[str] = set()
        for node in self._nodes.values():
            seen.update(node.store.keys())
        return len(seen)

    def node(self, name: str) -> Any:
        """Direct access to a peer (tests, invariant checks, agents)."""
        return self._nodes[name]

    # ------------------------------------------------------------------
    # Substrate primitives
    # ------------------------------------------------------------------

    def _gateway(self) -> Any:
        if not self._nodes:
            raise ReproError("the overlay has no peers")
        return self._nodes[min(self._nodes)]

    def _route_start(self, src: str | None) -> Any:
        if src is None:
            return self._gateway()
        node = self._nodes.get(src)
        if node is None:
            raise NodeUnreachableError(
                f"routing source peer {src!r} left the overlay"
            )
        return node

    def _targets(self, key: str) -> list[str]:
        """Route to *key*'s owner; the peers holding its copies."""
        return self._replica_targets(self._nodes[self.route_owner(key)])

    def _ask(self, peer: str, op: str, key: str) -> Any:
        """One sized key-only storage RPC from the gateway to *peer*."""
        return self.network.rpc(
            self._gateway().name, peer, "store_" + op, key,
            size_bytes=request_wire_size(key),
        )

    def _sized_put(self, src: str, dst: str, key: str, value: Any) -> int:
        """One ``store_put`` from *src* to *dst*; returns its size."""
        size = request_wire_size(key, value)
        self.network.rpc(
            src, dst, "store_put", key, value,
            size_bytes=size, payload_bytes=data_wire_size(value),
        )
        return size

    def _do_lookup(self, key: str) -> str:
        return self.route_owner(key)

    def _do_get(self, key: str) -> Any | None:
        for target in self._targets(key):
            value = self._ask(target, "get", key)
            if value is not None:
                return value
        return None

    def _do_get_direct(self, peer: str, key: str) -> Any | None:
        # One point-to-point store read, no routing, no hop metering:
        # this is exactly what a learned shortcut buys.
        return self._ask(peer, "get", key)

    def _do_put(self, key: str, value: Any) -> None:
        gateway = self._gateway().name
        for target in self._targets(key):
            self._sized_put(gateway, target, key, value)

    def _do_remove(self, key: str) -> Any:
        removed = [
            self._ask(target, "remove", key)
            for target in self._targets(key)
            if self._ask(target, "contains", key)
        ]
        if not removed:
            raise DhtKeyError(f"key {key!r} does not exist")
        return removed[0]

    def _do_contains(self, key: str) -> bool:
        return any(
            self._ask(target, "contains", key)
            for target in self._targets(key)
        )

    def _do_rewrite(self, key: str, value: Any) -> bool:
        """In-place rewrite by whichever peers hold the key.

        On a routed substrate this models the storing peer updating its
        own store — no routing, no wire messages (the base-class
        implementation would route a contains + put).  All replica
        copies are refreshed.
        """
        holders = [
            node for node in self._nodes.values() if key in node.store
        ]
        for node in holders:
            node.store.put(key, value)
        return bool(holders)

    # ------------------------------------------------------------------
    # Batch primitives: one message round, one chain per element
    # ------------------------------------------------------------------

    def _run_round(self, operation, calls: Sequence[tuple]) -> list[Any]:
        outcomes: list[Any] = []
        with self.network.message_round() as round_:
            for args in calls:
                with round_.chain():
                    outcomes.append(_capture(operation, *args))
        return outcomes

    def _do_get_many(self, keys: Sequence[str]) -> list[Any]:
        return self._run_round(self._do_get, [(key,) for key in keys])

    def _do_put_many(self, items: Sequence[tuple[str, Any]]) -> list[Any]:
        return self._run_round(self._do_put, [tuple(item) for item in items])
