"""What the routed overlays (Chord, Pastry, Kademlia) share.

:class:`RoutedOverlay` is their common type: peers registered on one
:class:`~repro.net.simnet.SimNetwork`, a gateway peer that client
requests enter through, the public routing seam
:meth:`RoutedOverlay.route_owner`, and round-parallel batch primitives.

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

from collections.abc import Sequence
from typing import Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.dht.api import _capture
from repro.net.simnet import SimNetwork


class RoutedOverlay:
    """Peers on a ``network``, routed to by ``route_owner``.

    Mix in before :class:`~repro.dht.api.Dht`; the host class supplies
    ``network`` (a :class:`SimNetwork`), the live peers in ``_nodes``,
    :meth:`route_owner`, plus the sequential ``_do_*`` primitives the
    batch chains are built from.
    """

    network: SimNetwork
    _nodes: dict[str, Any]

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

    def _owner(self, key: str) -> Any:
        return self._nodes[self.route_owner(key)]

    def _do_lookup(self, key: str) -> str:
        return self._owner(key).name

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

    def _do_lookup_many(self, keys: Sequence[str]) -> list[Any]:
        return self._run_round(self._do_lookup, [(key,) for key in keys])
