"""Tunables of the adaptive read plane.

One frozen dataclass describes the whole plane, mirroring
:class:`~repro.common.config.IndexConfig`: an experiment's adaptive
behaviour is fully specified by ``IndexConfig(adaptive=AdaptiveConfig(
...))`` plus a workload, and ``adaptive=None`` (the default) builds no
plane at all — the index runs bit-identically to a pre-adaptive build.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ReproError


@dataclass(frozen=True, slots=True)
class AdaptiveConfig:
    """Static parameters of the adaptive plane.

    Attributes:
        sample_every: reads between hotspot-detector samples.  Each
            sample diffs the per-bucket read counters against the
            previous sample, so this is the granularity of the sliding
            window.
        window_samples: how many consecutive samples the sliding
            window spans; a bucket's traffic share is measured over
            ``window_samples * sample_every`` recent reads.
        hot_share: a bucket whose share of window reads reaches this
            threshold is flagged hot and (when ``max_replicas > 0``)
            promoted.  Bounds the number of simultaneously hot buckets
            by ``1 / hot_share``.
        min_window_reads: windows carrying fewer total reads than this
            flag nothing — a handful of reads is noise, not skew.
        max_replicas: ``K`` — read replicas created per hot bucket
            (``label#r1 .. label#rK``); 0 disables replication.
        cool_windows: a replicated bucket that stays below
            ``hot_share`` for this many consecutive samples decays back
            to ``K = 0`` (its replicas are removed).
        shortcut_capacity: entries in the client-side learned routing
            shortcut table (key -> owner peer); 0 disables shortcuts.
        learn_after: routed reads of one key before the plane spends a
            DHT-lookup learning its owner peer — amortises the learning
            cost over the repeat traffic that justifies it.
        seed: seeds the replica picker (which of primary/replicas a
            read is spread to), keeping adaptive runs deterministic.
    """

    sample_every: int = 256
    window_samples: int = 4
    hot_share: float = 0.05
    min_window_reads: int = 64
    max_replicas: int = 2
    cool_windows: int = 3
    shortcut_capacity: int = 512
    learn_after: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ReproError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )
        if self.window_samples < 1:
            raise ReproError(
                f"window_samples must be >= 1, got {self.window_samples}"
            )
        if not 0.0 < self.hot_share <= 1.0:
            raise ReproError(
                f"hot_share must be in (0, 1], got {self.hot_share}"
            )
        if self.min_window_reads < 0:
            raise ReproError(
                "min_window_reads must be >= 0, got "
                f"{self.min_window_reads}"
            )
        if self.max_replicas < 0:
            raise ReproError(
                f"max_replicas must be >= 0, got {self.max_replicas}"
            )
        if self.cool_windows < 1:
            raise ReproError(
                f"cool_windows must be >= 1, got {self.cool_windows}"
            )
        if self.shortcut_capacity < 0:
            raise ReproError(
                "shortcut_capacity must be >= 0 (0 disables shortcuts), "
                f"got {self.shortcut_capacity}"
            )
        if self.learn_after < 1:
            raise ReproError(
                f"learn_after must be >= 1, got {self.learn_after}"
            )
