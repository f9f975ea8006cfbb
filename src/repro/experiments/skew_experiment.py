"""E13 — tail latency and query balance under Zipf-skewed reads.

Theorem 6 balances what peers *store*; it says nothing about what
peers *serve*.  Under a skewed request stream a handful of leaf
buckets — hence a handful of owner peers, plus the routing gateway
every overlay hop funnels through — absorb most of the read traffic.
This experiment makes that hurt and then relieves it:

* the substrate is a Chord ring over a :class:`~repro.net.latency.
  QueueingLatency` network, where each peer is a single-server FIFO
  queue — a peer serving more RPCs per unit time than it can drain
  builds a backlog, and operation latency grows with the backlog;
* the workload is an open-loop ``request_trace(skew=1.1)`` stream
  (90% point lookups, 10% inserts) arriving at a fixed rate, so a
  slow server cannot slow the arrivals down — queueing delay lands in
  the measured tail, as it would for real clients;
* the **baseline** mode runs the index as-is (leaf cache on, adaptive
  plane off); the **adaptive** mode enables
  :class:`~repro.adaptive.plane.AdaptiveDht` via
  ``IndexConfig(adaptive=...)`` — hot buckets get read replicas,
  repeat lookups learn owner shortcuts and skip overlay routing.

Reported per mode: lookup-latency percentiles over the measured
window (the first fifth of the stream is adaptation warm-up), the
per-peer served-RPC distribution (max, max/mean,
:func:`~repro.metrics.loadbalance.gini_coefficient`), lookup recall,
and a digest of every query answer — the two modes must produce
bit-identical answers, adaptivity is a pure performance layer.

``benchmarks/test_adaptive.py`` gates on this experiment: at
``skew=1.1`` the adaptive mode must improve p99 lookup latency *and*
max-peer query load by >= 2x with equal digests and recall 1.0.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.adaptive.config import AdaptiveConfig
from repro.adaptive.plane import AdaptiveStats
from repro.common.config import IndexConfig
from repro.common.geometry import Point
from repro.common.rng import derive_seed
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.dht.chord import ChordDht
from repro.metrics.loadbalance import gini_coefficient, max_mean_ratio
from repro.net.latency import QueueingLatency
from repro.net.simnet import SimNetwork
from repro.service.loadgen import percentile
from repro.workloads.traces import request_trace, run_operation


def default_adaptive_config(seed: int = 0) -> AdaptiveConfig:
    """The E13 adaptive-plane tuning.

    The shortcut table is sized to cover the whole hot region — under
    Zipf(1.1) the head is heavy but *wide* (the top hundred ranks only
    carry ~58% of the draws), so shortcut coverage, not replication
    alone, is what drains the routing gateway; replication then spreads
    the few truly hot owners.
    """
    return AdaptiveConfig(
        sample_every=128,
        window_samples=4,
        hot_share=0.02,
        min_window_reads=32,
        max_replicas=2,
        cool_windows=3,
        shortcut_capacity=4096,
        learn_after=1,
        seed=seed,
    )


@dataclass(frozen=True, slots=True)
class SkewSample:
    """One mode's measured behaviour under the skewed stream."""

    mode: str
    skew: float
    operations: int
    measured: int
    latency: dict[str, float]
    max_peer_load: int
    max_mean: float
    gini: float
    recall: float
    answers_digest: str
    shortcut_hits: int
    replica_reads: int
    promotions: int
    demotions: int

    COLUMNS = (
        "mode",
        ("ops", "operations"),
        ("p50", lambda sample: sample.latency["p50"]),
        ("p95", lambda sample: sample.latency["p95"]),
        ("p99", lambda sample: sample.latency["p99"]),
        ("max peer", "max_peer_load"),
        ("max/mean", "max_mean"),
        "gini", "recall",
        ("answers", lambda sample: sample.answers_digest[:12]),
    )


def run_skew_experiment(
    points: Sequence[Point],
    config: IndexConfig,
    *,
    n_peers: int = 8,
    n_ops: int = 4000,
    skew: float = 1.1,
    qps: float = 0.35,
    base: float = 0.05,
    service: float = 1.0,
    cache_capacity: int = 4096,
    adaptive: AdaptiveConfig | None = None,
    seed: int = 0,
) -> list[SkewSample]:
    """Run the baseline and adaptive cells over the same stream.

    *qps* is the open-loop arrival rate in operations per virtual time
    unit; with *service* = 1 a peer saturates at 1 RPC per unit, so
    the default rate overloads the baseline's routing gateway (several
    routing RPCs per lookup land on it) while staying well inside one
    peer's capacity once shortcuts bypass routing.

    Both cells run with the client leaf cache (*cache_capacity*), the
    stack the adaptive shortcuts layer under: a hinted lookup probes
    the actual leaf key in one get, which is what makes the probe
    shortcut-learnable — without the cache, binary-search miss probes
    (no bucket at the candidate name, so nothing to learn an owner
    for) would keep routing through the gateway in both modes.
    """

    def run_mode(
        mode: str, plane_config: AdaptiveConfig | None
    ) -> SkewSample:
        latency = QueueingLatency(base=base, service=service)
        dht = ChordDht.build(n_peers, network=SimNetwork(latency))
        cfg = replace(
            config, adaptive=plane_config, cache_capacity=cache_capacity
        )
        bulk_load(dht, points, cfg)
        index = MLightIndex(dht, cfg)

        trace = request_trace(
            list(points),
            n_ops,
            lookup_fraction=0.9,
            range_fraction=0.0,
            insert_fraction=0.1,
            skew=skew,
            dims=cfg.dims,
            seed=derive_seed(seed, "e13-trace"),
        )

        # Measurement starts from idle servers: the bulk load is not
        # part of the serving story, and the first fifth of the stream
        # is the adaptive plane's warm-up (detection windows fill,
        # shortcuts get learned) — excluded from latencies and from
        # served counts alike.
        latency.reset()
        warmup = n_ops // 5
        digest = hashlib.sha256()
        lookup_latencies: list[float] = []
        covered = 0
        lookups = 0
        served_at_warmup: dict[str, int] = {}
        for position, operation in enumerate(trace):
            if position == warmup:
                served_at_warmup = dict(latency.served)
            latency.begin_op(position / qps)
            answer = run_operation(index, operation)
            if operation.kind != "lookup":
                continue
            bucket = answer.bucket
            if position < warmup:
                continue
            lookups += 1
            lookup_latencies.append(latency.op_latency())
            if bucket.covers(operation.key):
                covered += 1
            digest.update(
                f"{operation.kind}:{bucket.label}:{bucket.load}\n".encode()
            )

        ordered = sorted(lookup_latencies)
        summary = {
            f"p{q}": percentile(ordered, q) for q in (50, 95, 99)
        }

        loads = [
            latency.served.get(peer, 0) - served_at_warmup.get(peer, 0)
            for peer in dht.peers()
        ]
        plane = index.adaptive
        tallies = (
            plane.adaptive_stats if plane is not None else AdaptiveStats()
        )
        return SkewSample(
            mode=mode,
            skew=skew,
            operations=n_ops,
            measured=lookups,
            latency=summary,
            max_peer_load=max(loads),
            max_mean=max_mean_ratio(loads),
            gini=gini_coefficient(loads),
            recall=covered / lookups if lookups else 0.0,
            answers_digest=digest.hexdigest(),
            shortcut_hits=tallies.shortcut_hits,
            replica_reads=tallies.replica_reads,
            promotions=tallies.promotions,
            demotions=tallies.demotions,
        )

    if adaptive is None:
        adaptive = default_adaptive_config(seed)
    return [run_mode("baseline", None), run_mode("adaptive", adaptive)]


def adaptive_tallies(samples: list[SkewSample]) -> str:
    """What the plane did in the adaptive cells, one line per cell
    (printed under the E13 table)."""
    return "\n".join(
        f"{sample.mode}: {sample.shortcut_hits} shortcut hits, "
        f"{sample.replica_reads} replica reads, "
        f"{sample.promotions} promotions, {sample.demotions} demotions"
        for sample in samples
        if sample.mode == "adaptive"
    )


__all__ = [
    "SkewSample",
    "adaptive_tallies",
    "default_adaptive_config",
    "run_skew_experiment",
]
