"""DHT-homed subscription tables for continuous range queries.

A continuous query "push me every insert inside region R" decomposes,
exactly like a one-shot range query, into the leaves whose cells
overlap R.  Each leaf ``λ`` carries a :class:`SubscriptionTable` —
stored in the DHT under ``sub_key(fmd(λ))``, a ``sub:`` key that is
deliberately *not* co-located with the ``ml:`` bucket key (different
digest, possibly a different owner): the table's owner is the push
rendezvous, found by one ordinary DHT-lookup at insert time.

Storing tables as DHT values (instead of peer-local side state) buys
the whole storage stack for free:

* **Theorem 5 re-homing** — a split or merge moves exactly one bucket,
  so the continuous plane moves exactly one subscription table (the
  survivor's ``rewrite_local`` is free, same name ⇒ same key);
* **churn** — tables ride the substrate's ownership handoff like any
  other value;
* **durability** — PR 9's write-ahead backends persist and replay
  tables through crash-restart cycles, which is what lets E15 deliver
  downtime inserts exactly once after recovery.

Tables travel and are journalled as the wire's pickled-value kind (they
are not buckets), so entries are plain frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.common.geometry import Region, query_overlaps_cell, region_of_label

#: Key prefix for subscription tables, parallel to the ``ml:`` bucket
#: namespace.
SUB_PREFIX = "sub:"


def sub_key(name: str) -> str:
    """DHT key of the subscription table homed at bucket name *name*."""
    return SUB_PREFIX + name


@dataclass(frozen=True)
class Subscription:
    """One client's standing interest in a region.

    *client* is the delivery address — a simulated-network address, a
    service client id, or a local callback key, resolved by whichever
    delivery plane hosts the subscription.
    """

    sid: str
    region: Region
    client: str

    def matches(self, point: Sequence[float]) -> bool:
        """Closed containment — continuous queries use the same closed
        boundary semantics as one-shot range queries."""
        return self.region.contains_point_closed(point)


@dataclass
class SubscriptionTable:
    """The subscriptions homed at one leaf bucket.

    ``label`` records the leaf the table was filtered against; it is
    carried (rather than derived from the key) so re-homing code can
    assert it moved the right table.
    """

    label: str
    entries: dict[str, Subscription] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Subscription]:
        return iter(self.entries.values())

    def add(self, subscription: Subscription) -> None:
        self.entries[subscription.sid] = subscription

    def discard(self, sid: str) -> bool:
        """Remove subscription *sid*; True when it was present."""
        return self.entries.pop(sid, None) is not None

    def matching(self, point: Sequence[float]) -> list[Subscription]:
        """Subscriptions whose region contains *point* (closed)."""
        return [sub for sub in self if sub.matches(point)]

    def overlapping(self, label: str, dims: int) -> "SubscriptionTable":
        """A new table for descendant leaf *label*, keeping the entries
        whose region can still reach a key of its half-open cell.

        Used on split: an entry overlapping both children appears in
        both tables (correctness over conservation — the entry *is*
        interested in both cells)."""
        cell = region_of_label(label, dims)
        return SubscriptionTable(
            label=label,
            entries={
                sid: sub
                for sid, sub in self.entries.items()
                if query_overlaps_cell(sub.region, cell)
            },
        )

    def merged_with(self, other: "SubscriptionTable") -> "SubscriptionTable":
        """Union of two sibling tables (dedup by sid), for merges."""
        entries = dict(self.entries)
        entries.update(other.entries)
        return SubscriptionTable(label=self.label, entries=entries)
