"""The adaptive read plane: one Dht wrapper composing the three parts.

:class:`AdaptiveDht` wraps any :class:`~repro.dht.api.Dht` (the same
shared-stats wrapper discipline as ``RetryingDht``/``FaultyDht``, so it
stacks with both and works on every runtime) and adds, for index reads
under the ``"ml:"`` namespace:

* **read counting + hotspot detection** — every ``get`` of a bucket
  key tallies into the plane's per-key read dict; every
  ``sample_every`` reads the
  :class:`~repro.adaptive.detector.HotspotDetector` samples that dict
  and the plane promotes newly hot buckets / decays cooled ones;
* **read replication** — a promoted bucket is copied to
  ``key#r1..#rK`` (:mod:`~repro.adaptive.replication`) and each read
  of it is spread across the copies by the directory's seeded picker.
  Writes through the plane (``PUT``/``PUT_MANY``/``REWRITE`` steps)
  refresh the copies synchronously and ``REMOVE`` tears them down, so
  a replica read always returns exactly the primary's current value —
  answers are bit-identical to an unreplicated run by construction,
  and split/merge re-homing rides Theorem 5's single in-place rewrite;
* **learned routing shortcuts** — after ``learn_after`` routed reads
  of one key the plane spends one metered ``lookup`` learning its
  owner in a :class:`~repro.core.cache.HintTable` (key -> peer, the
  leaf cache's table); later reads go straight to the owner via
  :meth:`~repro.dht.api.Dht.get_direct`, skipping overlay routing
  entirely.  A second table, of the same kind, tallies the routed
  reads of keys not learned yet.

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

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from typing import Any

from repro.adaptive.config import AdaptiveConfig
from repro.adaptive.detector import HotspotDetector
from repro.adaptive.replication import (
    REPLICA_SEP,
    ReplicaDirectory,
    replica_keys,
)
from repro.common.errors import DhtKeyError, NodeUnreachableError
from repro.core.cache import HintTable
from repro.dht.api import (
    GET,
    GET_MANY,
    PUT,
    PUT_MANY,
    REMOVE,
    REWRITE,
    UNTRACED,
    BatchFailure,
    Dht,
    DhtDecorator,
)

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
    """

    def __init__(self, inner: Dht, config: AdaptiveConfig | None = None) -> None:
        super().__init__(inner)
        self._config = config if config is not None else AdaptiveConfig()
        self._reads: dict[str, int] = {}
        self.adaptive_stats = AdaptiveStats()
        self._detector = HotspotDetector(
            self._reads,
            window_samples=self._config.window_samples,
            hot_share=self._config.hot_share,
            min_reads=self._config.min_window_reads,
        )
        self._replicas = ReplicaDirectory(seed=self._config.seed)
        self._shortcuts = (
            HintTable(self._config.shortcut_capacity)
            if self._config.shortcut_capacity > 0
            else None
        )
        self._pending_learn = HintTable(_PENDING_LIMIT)
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
    def shortcuts(self) -> HintTable | None:
        """The learned shortcut table (key -> owner peer); None when
        disabled."""
        return self._shortcuts

    def read_counts(self) -> dict[str, int]:
        """Cumulative per-bucket-key read tallies (a copy)."""
        return dict(self._reads)

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
        reads = self._reads
        reads[key] = reads.get(key, 0) + 1
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
        """Copy the bucket at *key* to its replica keys; a promotion
        that creates no copy is abandoned."""
        tracer = self.tracer
        with (
            UNTRACED if tracer is None
            else tracer.span("adaptive", "promote", key=key)
        ) as span:
            created = 0
            try:
                value = self._inner.get(key)
            except NodeUnreachableError:
                value = None
            # None: unreachable, or merged away since the window formed.
            if value is not None:
                load = getattr(value, "load", 0)
                for copy_key in replica_keys(key, self._config.max_replicas):
                    try:
                        self._inner.put(copy_key, value, records_moved=load)
                    except NodeUnreachableError:
                        break
                    created += 1
                    self._learn_owner(copy_key)
            if span is not None:
                span.attrs["replicas"] = created
        if created:
            self._replicas.add(key, created)
            self.adaptive_stats.promotions += 1

    def _demote(self, key: str, *, reason: str) -> None:
        count = self._replicas.drop(key)
        if not count:
            return
        self._cold_streak.pop(key, None)
        tracer = self.tracer
        with (
            UNTRACED if tracer is None
            else tracer.span(
                "adaptive", "demote", key=key, reason=reason,
                replicas=count,
            )
        ):
            for copy_key in replica_keys(key, count):
                if self._shortcuts is not None:
                    self._shortcuts.forget(copy_key)
                try:
                    self._inner.remove(copy_key)
                except (DhtKeyError, NodeUnreachableError):
                    pass  # the copy is already gone or its peer is dead
        self.adaptive_stats.demotions += 1

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
        seen = (pending.get(target) or 0) + 1
        if seen >= self._config.learn_after:
            pending.forget(target)
            self._learn_owner(target)
        else:
            pending.observe(target, seen)

    def _adapted(self, key: str) -> bool:
        return key.startswith(_INDEX_PREFIX) and REPLICA_SEP not in key

    # ------------------------------------------------------------------
    # The seam: reads adapt, writes keep replicas coherent
    # ------------------------------------------------------------------

    def perform(self, step: tuple) -> Any:
        op = step[0]
        if op is GET:
            return self._read(step[1])
        if op is GET_MANY:
            keys = step[1]
            targets = self._redirect(keys)
            return self._heal(
                keys, targets, self._inner.get_many_outcomes(targets)
            )
        outcome = self._inner.perform(step)
        if op is PUT or op is REWRITE:
            # A REWRITE is Theorem 5's in-place rewrite: the one
            # surviving bucket of a split/merge keeps its key, so this
            # is exactly the "re-home replicas of one bucket" path.
            self._refresh_replicas(step[1], step[2])
        elif op is PUT_MANY:
            for key, value in step[1]:
                self._refresh_replicas(key, value)
        elif op is REMOVE:
            self._forget(step[1])
        return outcome

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _read(self, key: str) -> Any | None:
        inner = self._inner
        if not self._adapted(key):
            return inner.get(key)
        self._note_read(key)
        target = self._replicas.pick(key)
        stats = self.adaptive_stats
        if self._shortcuts is not None:
            peer = self._shortcuts.get(target)
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

    def _redirect(self, keys: Sequence[str]) -> list[str]:
        """Count the reads of a batch's index keys; the key each slot
        reads, a copy for a promoted one."""
        targets: list[str] = []
        for key in keys:
            if self._adapted(key):
                self._note_read(key)
                key = self._replicas.pick(key)
            targets.append(key)
        return targets

    def _heal(
        self, keys: Sequence[str], targets: list[str], outcomes: list[Any]
    ) -> list[Any]:
        """Settle a batch read whose slots read *targets*."""
        stats = self.adaptive_stats
        for slot, (key, target) in enumerate(zip(keys, targets)):
            if target is key:
                continue
            outcome = outcomes[slot]
            if outcome is None or isinstance(outcome, BatchFailure):
                # A lost or unreachable copy inside a batch heals in
                # place: demote, then answer the slot from the primary
                # (one extra metered get) so one stale replica never
                # degrades a whole round.
                self._demote(key, reason="batch-failed")
                stats.replica_heals += 1
                try:
                    outcomes[slot] = self._inner.get(key)
                except NodeUnreachableError as error:
                    outcomes[slot] = BatchFailure(error)
            else:
                stats.replica_reads += 1
        return outcomes

    def run_round(self, requests: list[tuple]) -> list[Any]:
        """A round a wrapper outside the plane metered and sent (a
        retry wave): adapted as the plane's own batch steps are, so the
        wrapper order changes no answer (a retried read is one more
        read here)."""
        if all(request[0] is GET for request in requests):
            keys = [request[1] for request in requests]
            targets = self._redirect(keys)
            outcomes = self._inner.run_round(
                [(GET, target, None, None) for target in targets]
            )
            return self._heal(keys, targets, outcomes)
        outcomes = self._inner.run_round(requests)
        for (op, key, value, _), outcome in zip(requests, outcomes):
            if op is PUT and not isinstance(outcome, BatchFailure):
                self._refresh_replicas(key, value)
        return outcomes

    def _forget(self, key: str) -> None:
        """Tear down every trace of a removed primary *key*."""
        self._demote(key, reason="removed")
        if self._shortcuts is not None:
            self._shortcuts.forget(key)
        self._pending_learn.forget(key)

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
