"""Prefix multicast and push delivery over the asyncio service runtime.

The simulated planes (:mod:`repro.mcast.runtime`,
:mod:`repro.mcast.continuous`) ride ``SimNetwork`` RPCs; this module
speaks the real framed wire protocol instead, using the two extension
opcodes:

* :class:`ServiceMulticast` — the client sends **one** ``MCAST`` frame
  to the owner of ``fmd(LCA(R))``; that peer's handler splits the
  region against its local bucket and forwards sub-region ``MCAST``
  frames peer-to-peer (spawned actor tasks, so a peer can forward to
  itself), aggregation flowing back up through the replies.  The
  handler is the asyncio driver of
  :func:`repro.core.rangequery.peer_subquery` — the same state machine
  the simulated agents drive — so it carries frames and meters them,
  nothing else.
* :class:`ServiceContinuousPlane` — deliveries travel as ``PUSH``
  frames: the writing client asks the subscription table's owner
  (a request frame), and the owner emits the *unsolicited*
  server-to-client ``PUSH`` frame (``request_id == 0``) that the
  client-side push sink dispatches to the local
  :class:`~repro.mcast.continuous.Subscriber` — the one direction the
  request/reply protocol otherwise lacks.

Handlers and the push sink are installed through
``ServiceDht.install_handler`` / ``set_push_sink``, which re-apply
them on restart, so continuous queries survive a crash-restart cycle
on a durable ring the same way they do on the simulated substrates.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.geometry import Region
from repro.common.labels import check_label
from repro.core.rangequery import (
    Forward,
    Hop,
    HopOutcome,
    peer_subquery,
    query_via_peers,
)
from repro.core.results import RangeQueryResult
from repro.dht.api import BatchFailure, Dht
from repro.mcast.continuous import ContinuousQueryPlane
from repro.service.node import ServiceDht
from repro.service.wire import Op, encode_frame, encode_reply


def service_under(dht: Dht) -> ServiceDht:
    """The :class:`~repro.service.node.ServiceDht` under *dht*'s
    wrapper stack."""
    for layer in dht.unwrap():
        if isinstance(layer, ServiceDht):
            return layer
    raise ReproError(
        "the service dissemination plane needs the asyncio service "
        "runtime (ServiceDht); simulated substrates use "
        "repro.mcast.runtime / repro.mcast.continuous instead"
    )


class ServiceMulticast:
    """Prefix multicast spoken as ``MCAST`` wire frames.

    *dht* may be the ``ServiceDht`` itself or a wrapper chain around
    it; metered state (``dht.stats``) lives on the outer facade while
    frames travel through the service runtime underneath.
    """

    def __init__(self, dht: Dht, dims: int, max_depth: int) -> None:
        self.dht = dht
        self.dims = dims
        self.max_depth = max_depth
        self._service = service_under(dht)
        self._service.install_handler(Op.MCAST, self._handle_mcast)

    def query(self, query: Region) -> RangeQueryResult:
        """Run *query* with one initiator-originated ``MCAST`` frame."""
        stats = self.dht.stats
        stats.mcasts += 1

        def send(hop: Hop) -> HopOutcome:
            # Routing the one initiator frame: one DHT-lookup, one
            # forward — the accounting MulticastRuntime applies.
            stats.lookups += 1
            stats.mcast_forwards += 1
            try:
                reply = self._service.call(
                    Op.MCAST, hop.key, body=(hop.target, hop.subquery, query)
                )
            except NodeUnreachableError as error:
                reply = BatchFailure(error)
            return reply, 1

        return query_via_peers(
            query, self.dims, self.max_depth, stats, send
        )

    async def _handle_mcast(self, peer: Any, frame: Any) -> bytes:
        """The ``MCAST`` handler, run on the owning actor: drive this
        peer's step of the query, answering its requests with frames."""
        target, subquery, query = frame.body
        check_label(target, self.dims)
        stats = self.dht.stats
        call_captured = self._service.call_captured
        step = peer_subquery(
            peer.store.get, target, subquery, query,
            self.dims, self.max_depth, stats,
        )
        try:
            request = next(step)
            while True:
                try:
                    if isinstance(request, Forward):
                        # One batched resolution per node, like the
                        # simulated forward_all: the sub-region frames
                        # go out together as one parallel round, one
                        # wire round each.
                        stats.meter_batch(len(request.hops))
                        stats.mcast_forwards += len(request.hops)
                        replies = await asyncio.gather(*(
                            call_captured(
                                Op.MCAST,
                                hop.key,
                                body=(hop.target, hop.subquery, query),
                            )
                            for hop in request.hops
                        ))
                        outcome = [(reply, 1) for reply in replies]
                    else:  # a GET step of the fallback search
                        outcome = await self._service.perform_on_loop(request)
                except NodeUnreachableError as error:
                    request = step.throw(error)
                else:
                    request = step.send(outcome)
        except StopIteration as done:
            return encode_reply(frame.request_id, done.value)


class ServiceContinuousPlane(ContinuousQueryPlane):
    """Continuous range queries whose deliveries are ``PUSH`` frames.

    Same client API and re-homing logic as the base plane; only
    delivery differs.  Each push is a request frame to the table
    owner's actor, which emits the unsolicited ``request_id == 0``
    ``PUSH`` frame a client-side sink dispatches to the local
    :class:`~repro.mcast.continuous.Subscriber`.
    """

    def __init__(self, index: Any) -> None:
        self._service = service_under(index.dht)
        super().__init__(index)
        self._service.install_handler(Op.PUSH, self._handle_push)
        self._service.set_push_sink(self._on_push_frame)

    async def _handle_push(self, peer: Any, frame: Any) -> bytes:
        delivered = await self._service.push_to_clients(
            peer.name, encode_frame(Op.PUSH, 0, frame.body)
        )
        return encode_reply(frame.request_id, delivered)

    def _on_push_frame(self, frame: Any) -> None:
        """Client-side sink for unsolicited frames."""
        if frame.op is not Op.PUSH:
            return
        client, method, args = frame.body
        subscriber = self._subscribers.get(client)
        if subscriber is not None:
            subscriber.dispatch(method, args)

    def _deliver(
        self, key: str | None, entry: Any, method: str, *args: Any
    ) -> None:
        self._dht.stats.pushes += 1
        # Invalidations have no table key; any actor can emit the
        # frame, so route by the client id instead.
        route_key = key if key is not None else entry.client
        try:
            self._service.call(
                Op.PUSH, route_key, body=(entry.client, method, list(args))
            )
        except NodeUnreachableError:
            pass  # owner (or client) gone mid-push; drop like the sim
