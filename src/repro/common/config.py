"""Configuration dataclasses shared by indexes and experiments.

All tunables of the paper's Section 7 appear here with the paper's
values as defaults, so an experiment is fully described by one
:class:`IndexConfig` plus a workload.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.common.errors import (
    ReproError,
    UnknownRuntimeError,
    UnknownStoreError,
    unknown_kind,
)
from repro.common.labels import MAX_RESOLUTION_BITS


@dataclass(frozen=True, slots=True)
class IndexConfig:
    """Static parameters of an over-DHT index instance.

    Attributes:
        dims: data dimensionality ``m`` (the paper evaluates 2-D).
        max_depth: the maximum possible index-tree depth ``D`` known to
            every peer in advance (Section 5; the paper's evaluation
            uses ``D = 28``).
        split_threshold: ``theta_split`` — a leaf holding more records
            splits (threshold-based maintenance, Section 4.1).
        merge_threshold: ``theta_merge`` — a sibling leaf pair holding
            fewer records in total merges; must stay below
            ``split_threshold`` for split/merge consistency (the paper
            suggests ``theta_split / 2``).
        expected_load: ``epsilon`` — the expected per-bucket load of the
            data-aware splitting strategy (Section 4.2; paper uses 70).
        strategy: which maintenance strategy the index builds —
            ``"threshold"`` (Section 4.1, uses ``split_threshold`` /
            ``merge_threshold``) or ``"data-aware"`` (Section 4.2, uses
            ``expected_load``).  Passing an explicit ``SplitStrategy``
            to :class:`~repro.core.index.MLightIndex` overrides this.
        cache_capacity: size of the client-side leaf cache
            (:mod:`repro.core.cache`); ``0`` disables caching, keeping
            every lookup on the paper's cold binary-search path (the
            default, so metered costs match the paper's model unless a
            cache is asked for).
        runtime: which runtime plane the experiment's DHT should be
            created on by :func:`repro.runtime.create_dht` —
            ``"sim"`` (the single-threaded simulated substrates, the
            reference semantics), ``"asyncio"`` (every peer served on
            one asyncio loop behind the framed wire protocol) or
            ``"tcp"`` (the same peers behind real loopback sockets).
            Query answers and index-level cost meters are identical
            across runtimes; only clocks differ (simulated rounds vs
            wall-clock spans).
        store: which record-store kind leaf buckets keep their
            records in (``repro.core.store.STORES``): ``"columnar"``
            (sorted struct-of-arrays snapshots, the default) or
            ``"numpy"`` (per-dimension ``float64`` ndarrays with
            vectorized mask-reduction matching; falls back to columnar
            with a warning when numpy is not installed).  Query answers
            are bit-identical across backends; only the constant
            factors differ.
        durability: durable per-peer storage for the DHT substrate:
            ``"log"``, the one durable backend (checksummed append-only
            log framed with the service wire codec, compacted in
            place).  ``None`` (the default) keeps peer stores purely
            in-memory, bit-identical to a build without the durability
            plane.  Required for
            crash-restart recovery (:meth:`repro.dht.api.Dht.restart`).
        tracing: when True the index builds a
            :class:`~repro.obs.trace.Tracer` and threads it through the
            engines, DHT stack and simulated network, so every query
            emits a hierarchical span tree (query → round → DHT
            primitive → network round).  Off by default: the disabled
            path is a single ``is None`` check per operation, keeping
            metered and timed behaviour bit-identical to an untraced
            index.
        adaptive: an :class:`~repro.adaptive.AdaptiveConfig` selecting
            the adaptive read plane (online hotspot detection, read
            replication of hot leaf buckets, learned routing
            shortcuts; :mod:`repro.adaptive`), or ``None`` (the
            default) for no plane at all — with ``None`` the index is
            bit-identical, in answers and cost counters, to a build
            without the plane.
    """

    dims: int = 2
    max_depth: int = 28
    split_threshold: int = 100
    merge_threshold: int = 50
    expected_load: int = 70
    strategy: str = "threshold"
    cache_capacity: int = 0
    runtime: str = "sim"
    store: str = "columnar"
    durability: str | None = None
    tracing: bool = False
    adaptive: object | None = None

    STRATEGIES = ("threshold", "data-aware")

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ReproError(f"dims must be >= 1, got {self.dims}")
        if self.max_depth < 1:
            raise ReproError(f"max_depth must be >= 1, got {self.max_depth}")
        # A label bit is a coordinate bit: no deeper than every
        # coordinate's fixed-point resolution allows.
        deepest = MAX_RESOLUTION_BITS * self.dims
        if self.max_depth > deepest:
            raise ReproError(
                f"max_depth must be <= {deepest} ({MAX_RESOLUTION_BITS} "
                f"bits per dimension), got {self.max_depth}"
            )
        if self.split_threshold < 1:
            raise ReproError("split_threshold must be >= 1")
        if not 0 <= self.merge_threshold < self.split_threshold:
            raise ReproError(
                "merge_threshold must satisfy 0 <= theta_merge < theta_split "
                f"(got {self.merge_threshold} vs {self.split_threshold})"
            )
        if self.expected_load < 1:
            raise ReproError("expected_load (epsilon) must be >= 1")
        if self.strategy not in self.STRATEGIES:
            raise ReproError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{self.STRATEGIES}"
            )
        if self.cache_capacity < 0:
            raise ReproError(
                "cache_capacity must be >= 0 (0 disables the cache), "
                f"got {self.cache_capacity}"
            )
        # Kinds are validated against the tables that build them,
        # imported lazily (here and for ``adaptive``): repro.common
        # stays importable below every other package.
        from repro.core.store import STORES
        from repro.dht.durable import check_durability
        from repro.runtime import RUNTIMES

        if self.runtime not in RUNTIMES:
            raise unknown_kind(
                UnknownRuntimeError, "runtime", self.runtime, RUNTIMES
            )
        if self.adaptive is not None:
            from repro.adaptive.config import AdaptiveConfig

            if not isinstance(self.adaptive, AdaptiveConfig):
                raise ReproError(
                    "adaptive must be an AdaptiveConfig or None, got "
                    f"{self.adaptive!r}"
                )
        if self.store not in STORES:
            raise unknown_kind(
                UnknownStoreError, "store backend", self.store, STORES
            )
        check_durability(self.durability)

    def __repr__(self) -> str:
        """Every field, in declaration order, derived from the
        dataclass machinery — the one authoritative listing of the
        config surface (a field added above appears here, in
        :meth:`snapshot`-style docs and in ``repr`` output by
        construction, so the three can never drift apart)."""
        body = ", ".join(
            f"{spec.name}={getattr(self, spec.name)!r}"
            for spec in fields(self)
        )
        return f"{type(self).__name__}({body})"
