"""Client-side hints: the leaf cache's O(1) warm lookups, and the one
hint table it and the adaptive plane's shortcuts are built on.

Every cold :func:`~repro.core.lookup.lookup_point` pays a binary search
over the candidate set — O(log D) DHT-gets (ablation A2 meters it).
Peers that repeatedly touch the same region can do much better: they
remember the leaf labels they saw and, on the next lookup, probe the
remembered leaf's name *first*.  Because the space partitioning is data
independent, a cached label is enough to recompute its DHT key locally
(``fmd`` is a pure function), so a cache entry is just the label string.

Correctness does not depend on freshness.  A proposal is only ever a
*hint*: the hinted probe is a metered DHT-get like any other, and the
caller trusts nothing but the probe's outcome —

* the returned bucket covers the point → done, one DHT-get;
* the probe missed, or returned a non-covering bucket → the hint was
  stale (the leaf split or merged away), but the outcome still *proves*
  a bound on the target label's length under the current tree, so the
  fallback binary search restarts with a tightened interval.

Staleness therefore costs one extra probe, never a wrong answer — the
same discipline as the paper's cost model, where every piece of remote
state an operation relies on is paid for with a DHT-lookup.

A hint can also be *dead*: its peer unreachable rather than its label
stale.  The lookup engine evicts the hint on an unreachable hinted
probe (:meth:`~repro.core.lookup.PointLookupCursor.probe_failed`) —
leaving it cached would steer every subsequent lookup in the region
back into the same dead peer's retry budget.

Bounding and invalidation are the :class:`HintTable`'s, which the
adaptive plane (:mod:`repro.adaptive.plane`) also uses for its learned
key → owner-peer shortcuts and its learn-candidate tallies:

* the table is LRU-bounded (``capacity`` entries);
* :meth:`HintTable.bump_generation` invalidates every current entry in
  O(1) — entries are tagged with the generation that observed them and
  stale-generation entries are dropped lazily on access.  Clients use
  it when they learn the tree churned wholesale (e.g. after a bulk
  load or a churn episode) without enumerating labels.

Hit/stale/miss counters are metered on the shared
:class:`~repro.dht.api.DhtStats` by the lookup engine, next to the
paper's cost counters, so experiments read them from one place.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.common.errors import ReproError

#: Default number of leaf labels a client remembers.
DEFAULT_CACHE_CAPACITY = 256


class HintTable:
    """LRU-bounded, generation-tagged map of hints ``key -> value``.

    Each entry keeps the generation current when it was observed; an
    entry of an older generation is no hint and is dropped when next
    touched.  The table is a pure data structure: it issues no DHT
    traffic and keeps no cost counters of its own.
    """

    __slots__ = ("_capacity", "_entries", "_generation")

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ReproError(
                f"hint table capacity must be >= 1, got {capacity}"
            )
        self._capacity = capacity
        self._entries: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        self._generation = 0

    @property
    def capacity(self) -> int:
        """Maximum number of entries retained."""
        return self._capacity

    @property
    def generation(self) -> int:
        """Current generation tag; bumping it invalidates all entries."""
        return self._generation

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        entry = self._entries.get(key)
        return entry is not None and entry[1] == self._generation

    def get(self, key: str) -> Any | None:
        """The value hinted for *key* (now the most recent), or None."""
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            return None
        if entry[1] != self._generation:
            del entries[key]  # lazy generation invalidation
            return None
        entries.move_to_end(key)
        return entry[0]

    def observe(self, key: str, value: Any = True) -> None:
        """Record *value* for *key* (most recent); a table that only
        records which keys exist, like the leaf cache, keeps ``True``."""
        entries = self._entries
        entries[key] = (value, self._generation)
        entries.move_to_end(key)
        if len(entries) > self._capacity:
            entries.popitem(last=False)

    def forget(self, key: str) -> None:
        """Drop *key* (a probe proved its hint stale or dead)."""
        self._entries.pop(key, None)

    def bump_generation(self) -> None:
        """Invalidate every current entry in O(1)."""
        self._generation += 1

    def clear(self) -> None:
        """Drop all entries."""
        self._entries.clear()


class LeafCache(HintTable):
    """The recently observed leaf labels of one client.

    A :class:`HintTable` of labels (plain bit strings) that adds the
    prefix walk the lookup engine asks it for.
    """

    __slots__ = ()

    def propose(
        self, candidate: str, low: int, high: int
    ) -> str | None:
        """Deepest cached label covering the point of *candidate*.

        A label covers the point iff it is a prefix of the candidate
        string, so the proposal is the longest cached prefix whose
        length lies in the caller's open search interval
        ``[low, high]`` (hints outside the interval cannot be the
        target under the caller's already-proven bounds).  Returns
        ``None`` when nothing useful is cached — the caller falls back
        to the cold binary search.
        """
        # The loop reads the entries dict itself: a get() call per
        # candidate length would cost more than the walk.
        entries = self._entries
        generation = self._generation
        for length in range(min(high, len(candidate)), low - 1, -1):
            label = candidate[:length]
            entry = entries.get(label)
            if entry is None:
                continue
            if entry[1] != generation:
                del entries[label]  # lazy generation invalidation
                continue
            entries.move_to_end(label)
            return label
        return None
