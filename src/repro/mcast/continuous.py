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

Where a table lives is not decided here: the index hands ``on_split``
/ ``on_merge`` the :class:`~repro.core.naming.SplitHomes` /
:class:`~repro.core.naming.MergeHomes` it placed the buckets by.

Crash tolerance: when the rendezvous owner of a covered leaf is down
(or lost the table), the event — a matching insert, or the leaf's
re-homing — is queued client-side in ``pending``, later events on a
queued event's leaves (the ones a re-homing bears too) queue behind it, and
:meth:`ContinuousQueryPlane.flush_pending` replays the queue in order
after the owner restarts, delivering each insert exactly once — PR 9's
durable backends replay the table, so the match set survives the
crash.  E15 gates this end to end.

The plane lives with the writing client (the same process that drives
splits and merges), so its ``covered`` label set — the client-side
filter that keeps subscription-free inserts at zero extra cost — stays
exact.  Multiple independent writers would each need their own plane;
coordinating them is out of scope for the reproduction.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.geometry import (
    Region,
    RegionLike,
    as_region,
    query_overlaps_cell,
    region_of_label,
)
from repro.core.naming import MergeHomes, SplitHomes, naming_function
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
        self.dispatch(message.msg_type, message.payload[0])

    def dispatch(self, method: str, args: Sequence[Any]) -> None:
        """Run one delivery — a simulated RPC, a ``PUSH`` frame's body
        or a direct call alike."""
        if method == "push":
            self.receive(*args)
        elif method == "invalidate":
            self.invalidate(*args)
        else:
            raise ReproError(f"unknown subscriber RPC {method!r}")

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
        #: Events whose rendezvous owner was down when they happened,
        #: in order, awaiting :meth:`flush_pending`: ``(leaves the
        #: event is on, leaves it bears, the handler, *its arguments)``.
        self.pending: list[tuple[Any, ...]] = []
        #: Leaves of queued events; later events on them queue behind.
        self._unsettled: set[str] = set()
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
        """Replay the events queued while a rendezvous owner was down.

        In order: each queued re-homing is applied to the (restored)
        table and each queued record matched against it and delivered
        exactly once; events whose table is *still* unreachable stay
        queued.  Returns the number of pushes made.
        """
        queued, self.pending = self.pending, []
        self._unsettled.clear()
        return sum(self._settle(*event) for event in queued)

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
    # Index hooks (MLightIndex maintenance yields them as CALL steps, so
    # their blocking facade calls run on the client thread, never on a
    # runtime's loop)
    # ------------------------------------------------------------------

    def on_insert(self, label: str, record: Record) -> None:
        self._settle((label,), (), self._push_insert, label, record)

    def on_split(self, homes: SplitHomes) -> None:
        self._settle(homes.dead, homes.born, self._rehome_split, homes)

    def on_merge(self, homes: MergeHomes) -> None:
        self._settle(homes.dead, homes.born, self._rehome_merge, homes)

    def _settle(
        self, labels: Sequence[str], born: Sequence[str],
        apply: Callable[..., int | None], *args: Any,
    ) -> int:
        """Run ``apply(*args)`` — an event on leaves *labels* that bears
        leaves *born* — now, or queue it when a table it needs is out
        of reach or an earlier queued event involves one of its leaves.
        Returns the pushes made."""
        if self.covered.isdisjoint(labels):
            return 0
        if self._unsettled.isdisjoint(labels):
            try:
                pushed = apply(*args)
            except NodeUnreachableError:
                pushed = None  # raised before the origin was rewritten
            if pushed is not None:
                return pushed
        self.pending.append((labels, born, apply, *args))
        # Later events on these leaves wait their turn; the born ones
        # count as covered until the replay says otherwise, so their
        # inserts queue instead of vanishing.
        self._unsettled.update(labels, born)
        self.covered.update(born)
        return 0

    def _fetch(self, key: str) -> SubscriptionTable | None:
        """The table at *key*; None when there is none or its owner is
        down (a ring that re-homes a dead peer's keys reads the same
        either way).  Under a covered leaf, None means an outage."""
        try:
            return self._dht.get(key)
        except NodeUnreachableError:
            return None

    def _push_insert(self, label: str, record: Record) -> int | None:
        key = sub_key(naming_function(label, self._dims))
        table = self._fetch(key)
        if table is None:
            return None
        return self._push_matches(key, table, record)

    # A re-homing's routed put may meet a second owner that is down.
    # It goes first, so a NodeUnreachableError leaves the origin's
    # tables and ``covered`` as they were and the replay starts over.

    def _rehome_split(self, homes: SplitHomes) -> int | None:
        table = self._fetch(sub_key(homes.name))
        if table is None:
            return None
        children = {
            label: table.overlapping(label, self._dims)
            for label in homes.born
        }
        for label, name in homes.moved:
            if len(children[label]):
                # Exactly the moved bucket's subscriptions are routed.
                self._dht.put(sub_key(name), children[label])
        # Same name, hence the same ``sub:`` key — rewritten in place
        # for free.
        self._dht.rewrite_local(sub_key(homes.name), children[homes.survivor])
        self.covered.difference_update(homes.dead)
        for label, child in children.items():
            self._cover(label, child)
        self._notify(table, homes)
        return 0

    def _rehome_merge(self, homes: MergeHomes) -> int | None:
        # Mirror the bucket layout: the sibling pair's tables sit under
        # ``sub:fmd(p)`` (survivor) and ``sub:p`` (moved).
        stays = self._fetch(sub_key(homes.name))
        moves = self._fetch(sub_key(homes.parent))
        for label, table in ((homes.survivor, stays), (homes.moved, moves)):
            if table is None and label in self.covered:
                return None
        merged = SubscriptionTable(label=homes.parent)
        for table in (stays, moves):
            if table is not None:
                merged = merged.merged_with(table)
        if stays is not None:
            # Same name, same key: rewritten in place for free.
            self._dht.rewrite_local(sub_key(homes.name), merged)
        elif len(merged):
            # Only the moved child was covered: the merged table is
            # newly homed at the survivor's key — one routed put, the
            # same single movement the bucket itself paid.
            self._dht.put(sub_key(homes.name), merged)
        if moves is not None:
            # The moved child's table transfers: exactly one entry,
            # like the bucket it shadows (Theorem 5).
            self._dht.remove(sub_key(homes.parent))
        self.covered.difference_update(homes.dead)
        self._cover(homes.parent, merged)
        self._notify(merged, homes)
        return 0

    def _cover(self, label: str, table: SubscriptionTable) -> None:
        if len(table):
            self.covered.add(label)
        else:
            self.covered.discard(label)

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
        self, table: SubscriptionTable, homes: SplitHomes | MergeHomes
    ) -> None:
        """Proactive invalidation push to every client in *table*."""
        for address in sorted({entry.client for entry in table}):
            entry = next(e for e in table if e.client == address)
            self._deliver(None, entry, "invalidate", homes.dead, homes.born)

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
            subscriber.dispatch(method, args)
