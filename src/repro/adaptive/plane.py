"""The adaptive read plane: one Dht wrapper composing the three parts.

:class:`AdaptiveDht` wraps any :class:`~repro.dht.api.Dht` (the same
shared-stats wrapper discipline as ``RetryingDht``/``FaultyDht``, so it
stacks with both and works on every runtime) and adds, for index reads
under the ``"ml:"`` namespace:

* **read counting + hotspot detection** — every ``get`` of a bucket
  key tallies into :class:`~repro.adaptive.detector.BucketReadCounters`
  (published on a :class:`~repro.obs.registry.MetricsRegistry`); every
  ``sample_every`` reads the
  :class:`~repro.adaptive.detector.HotspotDetector` samples the
  registry and the plane promotes newly hot buckets / decays cooled
  ones;
* **read replication** — a promoted bucket is copied to
  ``key#r1..#rK`` (:mod:`~repro.adaptive.replication`) and each read
  of it is spread across the copies by the directory's seeded picker.
  Writes through the plane (``put``/``put_many``/``rewrite_local``)
  refresh the copies synchronously and ``remove`` tears them down, so
  a replica read always returns exactly the primary's current value —
  answers are bit-identical to an unreplicated run by construction,
  and split/merge re-homing rides Theorem 5's single in-place rewrite;
* **learned routing shortcuts** — after ``learn_after`` routed reads
  of one key the plane spends one metered ``lookup`` learning its
  owner and stores it in the
  :class:`~repro.adaptive.shortcuts.ShortcutTable`; later reads go
  straight to the owner via :meth:`~repro.dht.api.Dht.get_direct`,
  skipping overlay routing entirely.

Failure discipline (what keeps the LeafCache interplay sound): a
shortcut that fails (dead peer or ``None``) is evicted and the read
falls back to the routed path at the cost of one extra metered get.  A
*replica* read that fails is different — the plane demotes the key
(drops the directory entry, best-effort-removes the surviving copies)
and re-raises, so the failure surfaces exactly like a primary-owner
failure: the lookup engine's
:meth:`~repro.core.lookup.PointLookupCursor.probe_failed` evicts the
leaf-cache hint and resumes the binary search, whose later probes hit
the live primary.  A replica read that comes back ``None`` (a copy
lost to churn) heals: demote, then answer from a metered primary get.

Everything the plane does on its own behalf — promotion copies,
refreshes, teardown, learning lookups — goes through the *metered*
public facade of the wrapped substrate: adaptivity's costs land on the
same :class:`~repro.dht.api.DhtStats` counters as everything else.
Promotions and demotions are traced as ``adaptive``-kind spans when a
tracer is attached.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from typing import Any

from repro.adaptive.config import AdaptiveConfig
from repro.adaptive.detector import (
    READS_SOURCE,
    BucketReadCounters,
    HotspotDetector,
)
from repro.adaptive.replication import (
    REPLICA_SEP,
    ReplicaDirectory,
    replica_keys,
)
from repro.adaptive.shortcuts import ShortcutTable
from repro.common.errors import DhtKeyError, NodeUnreachableError
from repro.dht.api import BatchFailure, Dht, DhtDecorator
from repro.obs.registry import MetricsRegistry

#: The index key namespace the plane adapts; other keys pass through.
_INDEX_PREFIX = "ml:"

#: Bound on the learn-candidate scratch table (keys seen once or more
#: but not yet often enough to learn).
_PENDING_LIMIT = 4096


@dataclass(slots=True)
class AdaptiveStats:
    """Outcome tallies of the adaptive plane.

    These are tallies, not costs: every probe, copy and learning
    lookup the plane issues is already metered on the shared
    :class:`~repro.dht.api.DhtStats`.  Snapshot/reset derive from the
    dataclass fields, the same no-drift construction as ``DhtStats``.
    """

    reads: int = 0
    replica_reads: int = 0
    replica_heals: int = 0
    shortcut_hits: int = 0
    shortcut_stale: int = 0
    shortcut_dead: int = 0
    shortcuts_learned: int = 0
    promotions: int = 0
    demotions: int = 0
    replica_refreshes: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            spec.name: getattr(self, spec.name) for spec in fields(self)
        }

    def reset(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name, spec.default)


class AdaptiveDht(DhtDecorator):
    """Wrap *inner* with hotspot replication and learned shortcuts.

    A :class:`~repro.dht.api.DhtDecorator`: everything it does not
    adapt reaches the wrapped facade unchanged.  ``config`` selects the
    behaviour; ``max_replicas=0`` with ``shortcut_capacity=0`` yields
    a pure observation plane (read counting only), which the fig6
    query-balance instrumentation uses.

    *registry*, when given, is where the per-bucket read counters are
    published (source ``"bucket_reads"``) and the plane's own tallies
    (source ``"adaptive"``); by default the plane owns a private
    :class:`~repro.obs.registry.MetricsRegistry`.
    """

    def __init__(
        self,
        inner: Dht,
        config: AdaptiveConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(inner)
        self._config = config if config is not None else AdaptiveConfig()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._reads = BucketReadCounters()
        self.metrics.register(READS_SOURCE, self._reads)
        self.adaptive_stats = AdaptiveStats()
        self.metrics.register("adaptive", self.adaptive_stats)
        self._detector = HotspotDetector(
            self.metrics,
            source=READS_SOURCE,
            window_samples=self._config.window_samples,
            hot_share=self._config.hot_share,
            min_reads=self._config.min_window_reads,
        )
        self._replicas = ReplicaDirectory(seed=self._config.seed)
        self._shortcuts = (
            ShortcutTable(self._config.shortcut_capacity)
            if self._config.shortcut_capacity > 0
            else None
        )
        self._pending_learn: OrderedDict[str, int] = OrderedDict()
        self._cold_streak: dict[str, int] = {}
        self._since_sample = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def config(self) -> AdaptiveConfig:
        """The plane's configuration."""
        return self._config

    @property
    def detector(self) -> HotspotDetector:
        """The online hotspot detector."""
        return self._detector

    @property
    def replicas(self) -> ReplicaDirectory:
        """The replica directory (which keys are promoted, and K)."""
        return self._replicas

    @property
    def shortcuts(self) -> ShortcutTable | None:
        """The learned shortcut table; None when disabled."""
        return self._shortcuts

    def read_counts(self) -> dict[str, int]:
        """Cumulative per-bucket-key read tallies (a copy)."""
        return self._reads.snapshot()

    def bump_generation(self) -> None:
        """Invalidate every learned shortcut in O(1).

        The wholesale-churn escape hatch, mirroring
        :meth:`~repro.core.cache.LeafCache.bump_generation`; replica
        placement is unaffected (replica keys re-route like any key).
        """
        if self._shortcuts is not None:
            self._shortcuts.bump_generation()

    # ------------------------------------------------------------------
    # Adaptation engine
    # ------------------------------------------------------------------

    def _note_read(self, key: str) -> None:
        self._reads.inc(key)
        self.adaptive_stats.reads += 1
        self._since_sample += 1
        if self._since_sample >= self._config.sample_every:
            self._since_sample = 0
            self._resample()

    def _resample(self) -> None:
        hot = self._detector.sample()
        # Sorted: promotion order places replicas, and a set of strings
        # iterates in PYTHONHASHSEED order.
        for key in sorted(hot):
            self._cold_streak.pop(key, None)
            if self._config.max_replicas > 0 and key not in self._replicas:
                self._promote(key)
        for key in self._replicas.keys():
            if key in hot:
                continue
            streak = self._cold_streak.get(key, 0) + 1
            if streak >= self._config.cool_windows:
                self._demote(key, reason="cooled")
            else:
                self._cold_streak[key] = streak

    def _promote(self, key: str) -> None:
        tracer = self.tracer
        if tracer is None:
            self._do_promote(key)
            return
        with tracer.span("adaptive", "promote", key=key) as span:
            span.attrs["replicas"] = self._do_promote(key)

    def _do_promote(self, key: str) -> int:
        """Copy the bucket at *key* to its replica keys; returns how
        many copies were created (0 aborts the promotion)."""
        try:
            value = self._inner.get(key)
        except NodeUnreachableError:
            return 0
        if value is None:
            return 0  # the bucket merged away since the window formed
        load = getattr(value, "load", 0)
        created = 0
        for copy_key in replica_keys(key, self._config.max_replicas):
            try:
                self._inner.put(copy_key, value, records_moved=load)
            except NodeUnreachableError:
                break
            created += 1
            self._learn_owner(copy_key)
        if created:
            self._replicas.add(key, created)
            self.adaptive_stats.promotions += 1
        return created

    def _demote(self, key: str, *, reason: str) -> None:
        count = self._replicas.drop(key)
        if not count:
            return
        self._cold_streak.pop(key, None)
        tracer = self.tracer
        if tracer is None:
            self._do_demote(key, count)
        else:
            with tracer.span(
                "adaptive", "demote", key=key, reason=reason
            ) as span:
                span.attrs["replicas"] = count
                self._do_demote(key, count)
        self.adaptive_stats.demotions += 1

    def _do_demote(self, key: str, count: int) -> None:
        for copy_key in replica_keys(key, count):
            if self._shortcuts is not None:
                self._shortcuts.forget(copy_key)
            try:
                self._inner.remove(copy_key)
            except (DhtKeyError, NodeUnreachableError):
                pass  # the copy is already gone or its peer is dead

    def _refresh_replicas(self, key: str, value: Any) -> None:
        """Write-through a primary update to every copy of *key*.

        A refresh that cannot reach a copy demotes the key instead of
        leaving a diverged replica serving stale answers.
        """
        count = self._replicas.count(key)
        if not count:
            return
        load = getattr(value, "load", 0)
        for copy_key in replica_keys(key, count):
            try:
                self._inner.put(copy_key, value, records_moved=load)
            except NodeUnreachableError:
                self._demote(key, reason="refresh-failed")
                return
        self.adaptive_stats.replica_refreshes += 1

    def _learn_owner(self, target: str) -> None:
        """Spend one metered lookup learning *target*'s owner peer."""
        if self._shortcuts is None:
            return
        try:
            peer = self._inner.lookup(target)
        except NodeUnreachableError:
            return
        self._shortcuts.observe(target, peer)
        self.adaptive_stats.shortcuts_learned += 1

    def _maybe_learn(self, target: str) -> None:
        """Count a routed read of *target* toward shortcut learning."""
        if self._shortcuts is None or target in self._shortcuts:
            return
        pending = self._pending_learn
        seen = pending.pop(target, 0) + 1
        if seen >= self._config.learn_after:
            self._learn_owner(target)
            return
        pending[target] = seen
        while len(pending) > _PENDING_LIMIT:
            pending.popitem(last=False)

    def _adapted(self, key: str) -> bool:
        return key.startswith(_INDEX_PREFIX) and REPLICA_SEP not in key

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: str) -> Any | None:
        inner = self._inner
        if not self._adapted(key):
            return inner.get(key)
        self._note_read(key)
        target = self._replicas.pick(key)
        stats = self.adaptive_stats
        if self._shortcuts is not None:
            peer = self._shortcuts.propose(target)
            if peer is not None:
                try:
                    value = inner.get_direct(peer, target)
                except NodeUnreachableError:
                    self._shortcuts.forget(target)
                    stats.shortcut_dead += 1
                else:
                    if value is not None:
                        stats.shortcut_hits += 1
                        if target is not key:
                            stats.replica_reads += 1
                        return value
                    self._shortcuts.forget(target)
                    stats.shortcut_stale += 1
                # fall through to the routed read of the same target
        try:
            value = inner.get(target)
        except NodeUnreachableError:
            if target is not key:
                # Surface the failure exactly like a dead primary so
                # the lookup engine evicts its leaf-cache hint; stop
                # steering reads at the dead copy first.
                self._demote(key, reason="unreachable")
            raise
        if target is not key:
            if value is None:
                # The copy vanished underneath the directory (lost to
                # churn); heal and answer from the primary.
                self._demote(key, reason="missing")
                stats.replica_heals += 1
                return inner.get(key)
            stats.replica_reads += 1
        if value is not None:
            self._maybe_learn(target)
        return value

    def get_many_outcomes(self, keys: Sequence[str]) -> list[Any]:
        keys = list(keys)
        if not keys:
            return []
        targets: list[str] = []
        redirected: list[int] = []
        for slot, key in enumerate(keys):
            target = key
            if self._adapted(key):
                self._note_read(key)
                target = self._replicas.pick(key)
                if target is not key:
                    redirected.append(slot)
            targets.append(target)
        outcomes = self._inner.get_many_outcomes(targets)
        stats = self.adaptive_stats
        for slot in redirected:
            outcome = outcomes[slot]
            if outcome is None or isinstance(outcome, BatchFailure):
                # A lost or unreachable copy inside a batch heals in
                # place: demote, then answer the slot from the primary
                # (one extra metered get) so one stale replica never
                # degrades a whole round.
                self._demote(key=keys[slot], reason="batch-failed")
                stats.replica_heals += 1
                try:
                    outcomes[slot] = self._inner.get(keys[slot])
                except NodeUnreachableError as error:
                    outcomes[slot] = BatchFailure(error)
            else:
                stats.replica_reads += 1
        return outcomes

    # ------------------------------------------------------------------
    # Writes: keep replicas write-through coherent
    # ------------------------------------------------------------------

    def put(self, key: str, value: Any, *, records_moved: int = 0) -> None:
        self._inner.put(key, value, records_moved=records_moved)
        self._refresh_replicas(key, value)

    def put_many(
        self,
        items: Sequence[tuple[str, Any]],
        *,
        records_moved: Sequence[int] | None = None,
    ) -> None:
        self._inner.put_many(items, records_moved=records_moved)
        for key, value in items:
            self._refresh_replicas(key, value)

    def rewrite_local(self, key: str, value: Any) -> None:
        # Theorem 5's in-place rewrite: the one surviving bucket of a
        # split/merge keeps its key, so this intercept is exactly the
        # "re-home replicas of one bucket" path.
        self._inner.rewrite_local(key, value)
        self._refresh_replicas(key, value)

    def remove(self, key: str, *, records_moved: int = 0) -> Any:
        value = self._inner.remove(key, records_moved=records_moved)
        self._demote(key, reason="removed")
        if self._shortcuts is not None:
            self._shortcuts.forget(key)
        self._pending_learn.pop(key, None)
        return value

    # ------------------------------------------------------------------
    # Oracle access
    # ------------------------------------------------------------------

    def items(self) -> Iterator[tuple[str, Any]]:
        # Replica copies are the plane's private state, not index
        # content: without this filter the index's oracle walks
        # (tree_size, check_invariants) would see each hot leaf twice.
        for key, value in self._inner.items():
            if REPLICA_SEP not in key:
                yield key, value

    def key_count(self) -> int:
        # Same replica filter as items(), but via the substrate's
        # count: subtract the copies the directory knows it created
        # instead of walking every value.
        copies = sum(
            self._replicas.count(key) for key in self._replicas.keys()
        )
        return self._inner.key_count() - copies
