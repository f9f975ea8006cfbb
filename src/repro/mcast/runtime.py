"""Prefix multicast over the simulated substrates: the peer runtime.

The paper narrates range queries peer to peer: "Upon receiving the
range query, the corner cell constructs a local tree … Ri is forwarded
to βi via a DHT-lookup" (Section 6) — and the peer that forwards the
subquery is the one doing that lookup.  :class:`MulticastRuntime` runs
it that way on a routed overlay (Chord, Pastry, Kademlia):

* every peer answers subqueries at ``<peer>#mcast`` on the
  ``SimNetwork``; which node serves one is decided when the message is
  delivered, so agents follow ``fail``, ``restart`` and ``join``;
* a serving peer is ``dht.drive`` over
  :func:`~repro.core.rangequery.peer_subquery`: it reads the bucket
  named ``fmd(target)`` from its own store at no cost, its fallback
  ``GET`` steps go through the facade (and any wrapper around it), and
  its one ``CALL`` step is this runtime's forward;
* a forward routes each hop from the forwarding peer's own overlay
  position — :meth:`~repro.dht.overlay.RoutedOverlay.route_owner`:
  Chord's fingers, Pastry's routing table, Kademlia's buckets — and
  carries it to the owner's agent, one chain per hop in one message
  round.

The initiator therefore sends exactly **one** message per range query
(to the owner of ``fmd(LCA(R))``, metered as ``stats.mcasts``); every
further hop is peer to peer (``stats.mcast_forwards``).  Each hop
embeds one DHT-lookup, so the answers, ``lookups`` and ``rounds`` are
the client engine's (``index.range_query``); only ``hops`` (route
length, start-position dependent) and the message *origins* differ.
``tests/test_mcast.py`` asserts the equality across all three
overlays.
"""

from __future__ import annotations

from functools import partial

from repro.common.errors import ReproError
from repro.common.geometry import Region
from repro.core.rangequery import (
    AgentResult,
    Hop,
    HopOutcome,
    peer_subquery,
    query_via_peers,
)
from repro.core.results import RangeQueryResult
from repro.dht.api import UNTRACED, Dht, _capture
from repro.dht.overlay import RoutedOverlay
from repro.net.message import Message
from repro.net.simnet import RpcError

#: Suffix appended to a peer's network address for its query agent.
MCAST_SUFFIX = "#mcast"


class MulticastRuntime:
    """Prefix multicast: peer-to-peer forwarding with overlay-native
    owner resolution and O(1) initiator-originated messages.

    *dht* may be the routed substrate itself or a wrapper chain
    (``RetryingDht``, ``FaultyDht``) around it: a peer's fallback
    probes are metered steps of the outermost layer, while agents live
    on the substrate's peers and route natively.
    """

    def __init__(self, dht: Dht, dims: int, max_depth: int) -> None:
        substrate = next(
            (
                layer for layer in dht.unwrap()
                if isinstance(layer, RoutedOverlay)
            ),
            None,
        )
        if substrate is None:
            raise ReproError(
                "peer-side execution needs a routed substrate with peers "
                "(Chord/Kademlia/Pastry); LocalDht has no peers to host "
                "agents on"
            )
        self.dht = dht
        self.dims = dims
        self.max_depth = max_depth
        self._substrate = substrate
        self._network = substrate.network

    def query(
        self, query: Region, initiator: str | None = None
    ) -> RangeQueryResult:
        """Run *query* from *initiator* (default: the first live peer)
        with one initiator-originated message."""
        peers = self._substrate.peers()
        if initiator is None and peers:
            initiator = peers[0]
        if initiator not in peers:
            raise ReproError(f"initiator {initiator!r} is not a live peer")

        def send(hop: Hop) -> HopOutcome:
            return self._forward(initiator, query, [hop])[0]

        tracer = self.dht.tracer
        with (
            UNTRACED if tracer is None
            else tracer.span("mcast", "query", initiator=initiator)
        ):
            return query_via_peers(
                query, self.dims, self.max_depth, self.dht.stats, send
            )

    def handle_rpc(self, message: Message) -> AgentResult:
        """Serve one subquery at the peer *message* is addressed to.

        The node is looked up now, not when the agent was first
        reached: a crashed peer fails the hop, a restarted one serves
        from its recovered store.
        """
        peer = message.dst.removesuffix(MCAST_SUFFIX)
        try:
            node = self._substrate.node(peer)
        except KeyError:
            raise RpcError(f"peer {peer!r} is down") from None
        (target, subquery, query), _ = message.payload
        return self.dht.drive(peer_subquery(
            node.store.get, target, subquery, query, self.dims,
            self.max_depth, self.dht.stats,
            partial(self._forward, peer, query),
        ))

    def _forward(
        self, src: str, query: Region, hops: list[Hop]
    ) -> list[HopOutcome]:
        """Deliver *hops* from peer *src* as one message round, each
        hop its own chain: the native route to its owner, then the
        agent message.  An unreachable owner or agent fails only its
        own hop, after the one wire round it spent."""
        outcomes: list[HopOutcome] = []
        with self._network.message_round() as round_:
            for hop in hops:
                with round_.chain():
                    reply = _capture(self._deliver, src, hop, query)
                outcomes.append((reply, 1))
        return outcomes

    def _deliver(self, src: str, hop: Hop, query: Region) -> AgentResult:
        owner = self._substrate.route_owner(hop.key, src)
        address = owner + MCAST_SUFFIX
        if not self._network.is_registered(address):
            # First message to this peer, a peer that joined included.
            self._network.register(address, self)
        return self._network.rpc(
            src + MCAST_SUFFIX, address, "execute",
            hop.target, hop.subquery, query,
        )
