"""Continuous range queries: subscribe once, receive matching inserts.

:class:`ContinuousQueryPlane` attaches to an
:class:`~repro.core.index.MLightIndex` (via
``index.attach_dissemination``) and observes three structural events:

* **insert** — after the record lands in its leaf, the leaf's
  subscription table (one DHT get to the ``sub:`` rendezvous) is
  matched and every interested client receives a push
  (``stats.pushes``);
* **split** — the origin leaf's table is re-homed exactly like the
  bucket itself (Theorem 5): the survivor's table is rewritten in
  place at the *same* key for free, and only the moved child's table
  is routed — one entry per split;
* **merge** — the moved child's table (stored under the parent's own
  label, mirroring the bucket layout) is removed and unioned into the
  survivor's, rewritten in place — again one entry moved.

Re-homing also pushes **proactive invalidation** notifications to
subscribers: the labels that died and the labels that were born, so a
subscribed client's :class:`~repro.core.cache.LeafCache` drops stale
hints *before* wasting a probe on them (the satellite-3 fix — without
subscriptions, merges are only discovered on probe failure).

Crash tolerance: when the rendezvous owner is down (or lost the
table), matching inserts are queued client-side in ``pending`` and
:meth:`ContinuousQueryPlane.flush_pending` delivers each exactly once
after the owner restarts — PR 9's durable backends replay the table,
so the match set survives the crash.  E15 gates this end to end.

The plane lives with the writing client (the same process that drives
splits and merges), so its ``covered`` label set — the client-side
filter that keeps subscription-free inserts at zero extra cost — stays
exact.  Multiple independent writers would each need their own plane;
coordinating them is out of scope for the reproduction.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.geometry import (
    Region,
    RegionLike,
    as_region,
    query_overlaps_cell,
    region_of_label,
)
from repro.core.naming import naming_function
from repro.core.records import Record
from repro.mcast.subscriptions import (
    Subscription,
    SubscriptionTable,
    sub_key,
)
from repro.net.message import Message
from repro.net.simnet import SimNetwork


class Subscriber:
    """Client-side handle for one continuous query.

    Receives pushed records in ``delivered`` and re-homing
    notifications in ``invalidations``.  When constructed with a
    *cache*, notifications are applied to it proactively (forget dead
    leaf labels, observe born ones).  On a simulated network the
    handle is registered at *address* and deliveries arrive as real
    messages; against ``LocalDht`` the plane calls it directly.
    """

    def __init__(
        self,
        sid: str,
        region: Region,
        address: str,
        cache: Any | None = None,
    ) -> None:
        self.sid = sid
        self.region = region
        self.address = address
        self.cache = cache
        self.delivered: list[Record] = []
        self.invalidations: list[tuple[tuple[str, ...], tuple[str, ...]]] = []

    def handle_rpc(self, message: Message) -> None:
        args, _kwargs = message.payload
        if message.msg_type == "push":
            self.receive(args[0])
        elif message.msg_type == "invalidate":
            self.invalidate(args[0], args[1])
        else:
            raise ReproError(
                f"unknown subscriber RPC {message.msg_type!r}"
            )

    def receive(self, record: Record) -> None:
        self.delivered.append(record)

    def invalidate(
        self, dead: tuple[str, ...], born: tuple[str, ...]
    ) -> None:
        self.invalidations.append((tuple(dead), tuple(born)))
        if self.cache is not None:
            for label in dead:
                self.cache.forget(label)
            for label in born:
                self.cache.observe(label)

    @property
    def delivered_keys(self) -> list[tuple[float, ...]]:
        return [record.key for record in self.delivered]


class ContinuousQueryPlane:
    """Push-based continuous range queries over an m-LIGHT index."""

    def __init__(self, index: Any) -> None:
        self._index = index
        self._dht = index.dht
        self._dims = index.dims
        # Deliveries ride simulated RPCs only on an rpc-capable network;
        # the service runtime's transport has no addressing, and its
        # deliveries go over wire frames instead
        # (:class:`repro.mcast.service.ServiceContinuousPlane`).
        network = index.dht.network
        self._network = network if isinstance(network, SimNetwork) else None
        self._subscribers: dict[str, Subscriber] = {}
        #: Leaf labels whose subscription table is (believed) non-empty
        #: — the zero-cost client-side filter on the insert path.
        self.covered: set[str] = set()
        #: (leaf label, record) pairs whose rendezvous owner was down
        #: at insert time, awaiting :meth:`flush_pending`.
        self.pending: list[tuple[str, Record]] = []
        self._counter = 0
        index.attach_dissemination(self)

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------

    def subscribe(
        self,
        region: RegionLike,
        *,
        client: str | None = None,
        cache: Any | None = None,
    ) -> Subscriber:
        """Register a standing query for *region*; returns the handle.

        Cost: one one-shot range query decomposes the region into its
        covering leaves (the paper's LCA machinery, metered as usual),
        then one table update per covering leaf.  ``stats.subscribes``
        counts the operation.
        """
        region = as_region(region)
        sid = f"sub-{self._counter}"
        self._counter += 1
        address = client if client is not None else f"{sid}@client"
        subscriber = Subscriber(sid, region, address, cache=cache)
        if self._network is not None:
            self._network.register(address, subscriber)
        self._subscribers[address] = subscriber
        self._dht.stats.subscribes += 1
        entry = Subscription(sid, region, address)
        for label in self._covering_leaves(region):
            key = sub_key(naming_function(label, self._dims))
            table = self._dht.get(key)
            if table is None:
                table = SubscriptionTable(label=label)
            table.label = label
            table.add(entry)
            self._dht.put(key, table)
            self.covered.add(label)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Withdraw *subscriber* from every table it appears in."""
        for label in sorted(self.covered):
            name = naming_function(label, self._dims)
            key = sub_key(name)
            table = self._dht.get(key)
            if table is None:
                self.covered.discard(label)
                continue
            if table.discard(subscriber.sid):
                if len(table) == 0:
                    self._dht.remove(key)
                    self.covered.discard(label)
                else:
                    self._dht.put(key, table)
        if self._network is not None:
            self._network.unregister(subscriber.address)
        self._subscribers.pop(subscriber.address, None)

    def flush_pending(self) -> int:
        """Deliver inserts queued while a rendezvous owner was down.

        Each queued record is matched against the (restored) table and
        delivered exactly once; records whose table is *still*
        unreachable stay queued.  Returns the number of pushes made.
        """
        queued, self.pending = self.pending, []
        delivered = 0
        for label, record in queued:
            key = sub_key(naming_function(label, self._dims))
            try:
                table = self._dht.get(key)
            except NodeUnreachableError:
                table = None
            if table is None:
                self.pending.append((label, record))
                continue
            delivered += self._push_matches(key, table, record)
        return delivered

    def _covering_leaves(self, region: Region) -> list[str]:
        """The leaf labels whose cells overlap *region*, discovered by
        one one-shot range query."""
        result = self._index.range_query(region)
        return sorted(
            label
            for label in result.visited_leaves
            if query_overlaps_cell(region, region_of_label(label, self._dims))
        )

    # ------------------------------------------------------------------
    # Index hooks (called by MLightIndex maintenance)
    # ------------------------------------------------------------------

    def on_insert(self, label: str, record: Record) -> None:
        if label not in self.covered:
            return
        key = sub_key(naming_function(label, self._dims))
        try:
            table = self._dht.get(key)
        except NodeUnreachableError:
            table = None
        if table is None:
            # Rendezvous owner down (or table lost until durable
            # replay): queue for exactly-once delivery after restart.
            self.pending.append((label, record))
            return
        self._push_matches(key, table, record)

    def on_split(self, plan: Any) -> None:
        if plan.origin not in self.covered:
            return
        origin_name = naming_function(plan.origin, self._dims)
        origin_key = sub_key(origin_name)
        try:
            table = self._dht.get(origin_key)
        except NodeUnreachableError:
            table = None
        if table is None:
            self.covered.discard(plan.origin)
            return
        self.covered.discard(plan.origin)
        born: list[str] = []
        survivor_table: SubscriptionTable | None = None
        for leaf_label, _records in plan.leaves:
            child = table.overlapping(
                region_of_label(leaf_label, self._dims)
            )
            child.label = leaf_label
            name = naming_function(leaf_label, self._dims)
            if name == origin_name:
                # The survivor shares the origin's name, hence the
                # same ``sub:`` key — rewritten in place for free.
                survivor_table = child
                self._dht.rewrite_local(origin_key, child)
            elif len(child):
                # Exactly the moved bucket's subscriptions are routed.
                self._dht.put(sub_key(name), child)
            if len(child):
                self.covered.add(leaf_label)
            born.append(leaf_label)
        if survivor_table is None:
            raise ReproError(
                f"split plan for {plan.origin!r} kept no survivor"
            )
        self._notify(table, dead=(plan.origin,), born=tuple(born))

    def on_merge(
        self, parent_label: str, child_a: str, child_b: str
    ) -> None:
        if child_a not in self.covered and child_b not in self.covered:
            return
        parent_name = naming_function(parent_label, self._dims)
        # Mirror the bucket layout: the sibling pair's tables sit under
        # ``sub:fmd(p)`` (survivor) and ``sub:p`` (moved).
        merged = SubscriptionTable(label=parent_label)
        survivor_existed = False
        for key, is_moved in (
            (sub_key(parent_name), False),
            (sub_key(parent_label), True),
        ):
            try:
                table = self._dht.get(key)
                if table is not None and is_moved:
                    # The moved child's table transfers: exactly one
                    # entry, like the bucket it shadows (Theorem 5).
                    self._dht.remove(key)
            except NodeUnreachableError:
                table = None
            if table is not None:
                if not is_moved:
                    survivor_existed = True
                merged = merged.merged_with(table)
        merged.label = parent_label
        if survivor_existed:
            # Same name, same key: the survivor's table is rewritten
            # in place for free (Theorem 5).
            self._dht.rewrite_local(sub_key(parent_name), merged)
        elif len(merged):
            # Only the moved child was covered: the merged table is
            # newly homed at the survivor's key — one routed put, the
            # same single movement the bucket itself paid.
            self._dht.put(sub_key(parent_name), merged)
        self.covered.discard(child_a)
        self.covered.discard(child_b)
        if len(merged):
            self.covered.add(parent_label)
        self._notify(
            merged, dead=(child_a, child_b), born=(parent_label,)
        )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _push_matches(
        self, key: str, table: SubscriptionTable, record: Record
    ) -> int:
        pushed = 0
        for entry in table.matching(record.key):
            self._deliver(key, entry, "push", record)
            pushed += 1
        return pushed

    def _notify(
        self,
        table: SubscriptionTable,
        *,
        dead: tuple[str, ...],
        born: tuple[str, ...],
    ) -> None:
        """Proactive invalidation push to every client in *table*."""
        for address in sorted({entry.client for entry in table}):
            entry = next(e for e in table if e.client == address)
            self._deliver(None, entry, "invalidate", dead, born)

    def _deliver(
        self, key: str | None, entry: Subscription, method: str, *args: Any
    ) -> None:
        self._dht.stats.pushes += 1
        network = self._network
        if network is not None and network.is_registered(entry.client):
            src = entry.client
            if key is not None:
                try:
                    src = self._dht.peer_of(key)
                except Exception:
                    src = entry.client
            try:
                network.rpc(src, entry.client, method, *args)
                return
            except NodeUnreachableError:
                return  # client gone mid-push; drop silently
        subscriber = self._subscribers.get(entry.client)
        if subscriber is not None:
            if method == "push":
                subscriber.receive(args[0])
            else:
                subscriber.invalidate(args[0], args[1])
