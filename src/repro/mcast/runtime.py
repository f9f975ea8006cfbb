"""Overlay-native prefix multicast over the simulated substrates.

:class:`MulticastRuntime` subclasses the peer-forwarding
:class:`~repro.core.distributed.DistributedQueryRuntime` and changes
exactly one thing: *where owner resolutions originate*.  The base
runtime resolves every branch owner through the client-facing
``dht.lookup`` — faithful to a put/get service, but every resolution
is an initiator-originated message.  Here each forwarding peer routes
to the next owner **from its own position in the overlay**, through
the overlays' public routing seam
:meth:`~repro.dht.overlay.RoutedOverlay.route_owner` (Chord: greedy
finger routing from the peer's own ref; Pastry: prefix routing from
the peer's own node; Kademlia: an iterative FIND_NODE whose shortlist
starts from the peer's own buckets).

The initiator therefore sends exactly **one** message per range query
(to the owner of ``fmd(LCA(R))``, metered as ``stats.mcasts``); every
further hop is peer-to-peer (``stats.mcast_forwards``).  Each native
resolution still embeds one DHT-lookup — the paper's bandwidth
measure is unchanged, so ``lookups``/``batch_rounds``/``rounds`` and
the answers are identical to the client-fan-out path; only ``hops``
(route length, start-position dependent) and the message *origins*
differ.  ``tests/test_mcast.py`` asserts the equality across all
three overlays.
"""

from __future__ import annotations

from typing import Any

from repro.common.geometry import Region
from repro.core.distributed import DistributedQueryRuntime
from repro.core.results import RangeQueryResult
from repro.dht.api import _capture

#: Agent-address suffix — distinct from the fan-out runtime's
#: ``#mlight`` so both planes can coexist on one network.
MCAST_SUFFIX = "#mcast"


class MulticastRuntime(DistributedQueryRuntime):
    """Prefix multicast: peer-to-peer forwarding with overlay-native
    owner resolution and O(1) initiator-originated messages."""

    suffix = MCAST_SUFFIX

    # Each native resolution embeds one DHT-lookup (the route really
    # crosses the overlay; the substrate meters its hops) and one
    # peer-to-peer forward.  Metering mirrors the base runtime's
    # ``lookup``/``lookup_many_outcomes`` exactly, so fan-out and
    # multicast agree on every counter except ``hops``.

    def _resolve_target(self, src_peer: str, key: str) -> str:
        stats = self.dht.stats
        stats.lookups += 1
        stats.mcast_forwards += 1
        tracer = self.dht.tracer
        if tracer is None:
            return self._substrate.route_owner(key, src_peer)
        with tracer.span("mcast", "route", key=key, src=src_peer):
            return self._substrate.route_owner(key, src_peer)

    def _resolve_targets(
        self, src_peer: str, keys: list[Any]
    ) -> list[Any]:
        stats = self.dht.stats
        stats.meter_batch(len(keys))
        stats.mcast_forwards += len(keys)
        route = self._substrate.route_owner
        return [_capture(route, key, src_peer) for key in keys]

    def query(
        self, query: Region, initiator: str | None = None
    ) -> RangeQueryResult:
        """Run *query* with one initiator-originated message."""
        self.dht.stats.mcasts += 1
        tracer = self.dht.tracer
        if tracer is None:
            return super().query(query, initiator)
        with tracer.span("mcast", "query", initiator=initiator or ""):
            return super().query(query, initiator)
