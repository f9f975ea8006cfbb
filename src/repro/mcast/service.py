"""Prefix multicast and push delivery over the asyncio service runtime.

The simulated planes (:mod:`repro.mcast.runtime`,
:mod:`repro.mcast.continuous`) ride ``SimNetwork`` RPCs; this module
speaks the real framed wire protocol instead, using the two extension
opcodes:

* :class:`ServiceMulticast` — the client sends **one** ``MCAST`` frame
  to the owner of ``fmd(LCA(R))``; that peer's handler splits the
  region against its local bucket and forwards sub-region ``MCAST``
  frames peer-to-peer (a handler awaits its forward, and a frame is
  served where it is sent, so a peer can forward to itself),
  aggregation flowing back up through the replies.  The
  handler runs :func:`repro.core.rangequery.peer_subquery` — the same
  operation the simulated agents ``drive`` — on the service loop's
  trampoline (``ServiceDht.drive_on_loop``) and awaits its one
  ``CALL`` step, the forward, as frames: it carries frames, nothing
  else.
* :class:`ServiceContinuousPlane` — deliveries travel as ``PUSH``
  frames: the writing client asks the subscription table's owner
  (a request frame), and the owner emits the *unsolicited*
  server-to-client ``PUSH`` frame (``request_id == 0``) that the
  client-side push sink dispatches to the local
  :class:`~repro.mcast.continuous.Subscriber` — the one direction the
  request/reply protocol otherwise lacks.

Handlers and the push sink are installed through
``ServiceDht.install_handler`` / ``set_push_sink``; the runtime holds
them for every peer, a restarted one included, so continuous queries
survive a crash-restart cycle on a durable ring the same way they do
on the simulated substrates.
"""

from __future__ import annotations

import asyncio
import contextvars
from collections.abc import Iterable
from typing import Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.geometry import Region
from repro.common.labels import check_label
from repro.core.rangequery import (
    Hop,
    HopOutcome,
    peer_subquery,
    query_via_peers,
)
from repro.core.results import RangeQueryResult
from repro.dht.api import CALL, BatchFailure, Dht
from repro.mcast.continuous import ContinuousQueryPlane
from repro.service.node import ServiceDht, start_eagerly
from repro.service.wire import Op, encode_frame, encode_reply


async def gather_eagerly(coros: Iterable) -> list[Any]:
    """``asyncio.gather`` over :func:`start_eagerly`: each child starts
    at once in a copy of the current context, only the children that
    suspended are awaited, and the outcomes come back in call order.
    The first failure in call order is raised once every child is done;
    every child's exception is retrieved."""
    loop, copy = asyncio.get_running_loop(), contextvars.copy_context
    futures = [start_eagerly(loop, coro, copy()) for coro in coros]
    pending = [future for future in futures if not future.done()]
    if pending:
        await asyncio.wait(pending)
    for error in [future.exception() for future in futures]:
        if error is not None:
            raise error
    return [future.result() for future in futures]


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

        def send(hop: Hop) -> HopOutcome:
            try:
                reply = self._service.call(
                    Op.MCAST, hop.key, body=(hop.target, hop.subquery, query)
                )
            except NodeUnreachableError as error:
                reply = BatchFailure(error)
            return reply, 1

        return query_via_peers(
            query, self.dims, self.max_depth, self.dht.stats, send
        )

    async def _handle_mcast(self, peer: Any, frame: Any) -> bytes:
        """The ``MCAST`` handler, run for the owning peer: this peer's
        step of the query on the loop trampoline, its forward awaited
        here as sub-region frames."""
        target, subquery, query = frame.body
        check_label(target, self.dims)
        service = self._service

        async def forward(hops: list[Hop]) -> list[HopOutcome]:
            # The sub-region frames go out together as one parallel
            # round, one wire round each, started eagerly: in process the
            # whole forward tree is served on this stack.
            replies = await gather_eagerly(
                service.call_captured(
                    Op.MCAST, hop.key, body=(hop.target, hop.subquery, query)
                )
                for hop in hops
            )
            return [(reply, 1) for reply in replies]

        operation = peer_subquery(
            peer.store.get, target, subquery, query,
            self.dims, self.max_depth, self.dht.stats, forward,
        )
        step = await service.drive_on_loop(operation)
        while step[0] is CALL:
            step = await service.drive_on_loop(
                operation, await step[1](*step[2])
            )
        return encode_reply(frame.request_id, step[1])


class ServiceContinuousPlane(ContinuousQueryPlane):
    """Continuous range queries whose deliveries are ``PUSH`` frames.

    Same client API and re-homing logic as the base plane; only
    delivery differs.  Each push is a request frame to the table
    owner, which emits the unsolicited ``request_id == 0``
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
        # Invalidations have no table key; any peer can emit the
        # frame, so route by the client id instead.
        route_key = key if key is not None else entry.client
        try:
            self._service.call(
                Op.PUSH, route_key, body=(entry.client, method, list(args))
            )
        except NodeUnreachableError:
            pass  # owner (or client) gone mid-push; drop like the sim
