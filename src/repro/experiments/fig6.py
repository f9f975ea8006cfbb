"""Fig. 6 — storage load balance of the splitting strategies.

Inserts the dataset progressively under (a) threshold-based splitting
with ``theta_split = 100`` and (b) data-aware splitting with
``epsilon = 70`` — the paper's pairing, chosen so the two trees reach
comparable sizes — and samples, as the tree grows, the variance of
per-peer storage and the fraction of empty buckets.

Expected shape (paper): the data-aware strategy lowers load variance
(~15%) and empty buckets (~35%) at matched tree sizes.

Alongside the paper's storage measures, each grown tree also gets a
**query balance** measurement: a Zipf-skewed lookup phase counted by an
observe-only adaptive plane (:mod:`repro.adaptive`), reported as the
max/mean ratio and Gini coefficient of per-peer *served reads* — the
load Theorem 6 does not balance, and the adaptive plane exists to
relieve (E13).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.adaptive.config import AdaptiveConfig
from repro.adaptive.plane import AdaptiveDht
from repro.common.config import IndexConfig
from repro.common.geometry import Point
from repro.common.rng import derive_seed, make_rng
from repro.core.index import MLightIndex
from repro.experiments.harness import (
    build_index,
    default_sample_points,
    progressive_insert,
)
from repro.metrics.loadbalance import (
    empty_bucket_fraction,
    gini_coefficient,
    max_mean_ratio,
    normalized_load_variance,
    peer_query_loads,
    peer_record_loads,
)
from repro.workloads.traces import zipf_sampler

#: Strategy label -> scheme name.
FIG6_STRATEGIES = (
    ("threshold", "mlight"),
    ("data-aware", "mlight-da"),
)


@dataclass(frozen=True, slots=True)
class LoadBalanceSample:
    """One measurement along the insertion.

    ``bucket_variance`` is the normalised variance of per-bucket loads
    (the splitting strategy's direct footprint); ``peer_variance`` is
    the normalised variance of per-peer storage, the paper's stated
    measure, which additionally carries placement granularity noise
    (fewer, larger buckets spread less evenly over peers).
    """

    strategy: str
    inserted: int
    tree_size: int
    bucket_variance: float
    peer_variance: float
    empty_fraction: float

    COLUMNS = (
        "strategy", "inserted", "tree_size", "bucket_variance",
        "peer_variance",
        ("% empty buckets", lambda sample: 100.0 * sample.empty_fraction),
    )


@dataclass(frozen=True, slots=True)
class QueryBalanceSample:
    """Per-peer *query* load imbalance of one grown tree.

    Measured over a Zipf-skewed lookup phase: ``max_mean`` is the
    hottest peer's served reads over the mean, ``gini`` the Gini
    coefficient of per-peer served reads.
    """

    skew: float
    queries: int
    max_mean: float
    gini: float


@dataclass(frozen=True, slots=True)
class LoadBalanceSeries:
    """One curve of Fig. 6a/6b and its tree's query balance (a row of
    the query-load table)."""

    strategy: str
    samples: tuple[LoadBalanceSample, ...]
    query: QueryBalanceSample

    COLUMNS = (
        "strategy",
        ("zipf skew", lambda entry: entry.query.skew),
        ("queries", lambda entry: entry.query.queries),
        ("max/mean", lambda entry: entry.query.max_mean),
        ("gini", lambda entry: entry.query.gini),
    )


def measure_query_balance(
    index,
    points: Sequence[Point],
    *,
    skew: float = 1.1,
    n_queries: int = 2000,
    seed: int = 0,
) -> QueryBalanceSample:
    """Per-peer query-load imbalance of *index* under skewed lookups.

    Wraps the index's substrate in an observe-only adaptive plane
    (read counting only: no replication, no shortcuts) behind a second
    index view over the *same* tree, runs *n_queries* Zipf(*skew*)
    point lookups through it, and attributes every counted bucket read
    to the peer that served it.  The measured index is untouched — the
    plane never writes, and the view index skips bootstrap because the
    tree already exists.
    """
    plane = AdaptiveDht(
        index.dht,
        AdaptiveConfig(max_replicas=0, shortcut_capacity=0),
    )
    view = MLightIndex(plane, index.config)
    rng = make_rng(derive_seed(seed, "fig6-query-balance"))
    sample_rank = zipf_sampler(len(points), skew, rng)
    for _ in range(n_queries):
        view.lookup(points[sample_rank()])
    loads = peer_query_loads(index.dht, plane.read_counts())
    return QueryBalanceSample(
        skew=skew,
        queries=n_queries,
        max_mean=max_mean_ratio(loads),
        gini=gini_coefficient(loads),
    )


def run_loadbalance_experiment(
    points: Sequence[Point],
    config: IndexConfig,
    n_samples: int = 8,
    n_peers: int = 128,
    virtual_nodes: int = 64,
    query_skew: float = 1.1,
    n_queries: int = 2000,
    seed: int = 0,
) -> list[LoadBalanceSeries]:
    """Progressive insertion with periodic balance measurements.

    The substrate uses virtual hosts so that per-peer variance measures
    the splitting strategy rather than consistent-hashing arc luck (see
    EXPERIMENTS.md).  After each tree is fully grown, a skewed lookup
    phase measures its per-peer *query* balance (see
    :func:`measure_query_balance`).
    """
    series = []
    for strategy, scheme in FIG6_STRATEGIES:
        index = build_index(
            scheme, config, n_peers=n_peers, virtual_nodes=virtual_nodes
        )
        samples: list[LoadBalanceSample] = []

        def measure(count: int) -> None:
            buckets = list(index.buckets())
            samples.append(
                LoadBalanceSample(
                    strategy=strategy,
                    inserted=count,
                    tree_size=len(buckets),
                    bucket_variance=normalized_load_variance(
                        [bucket.load for bucket in buckets]
                    ),
                    peer_variance=normalized_load_variance(
                        peer_record_loads(index.dht)
                    ),
                    empty_fraction=empty_bucket_fraction(buckets),
                )
            )

        progressive_insert(
            index,
            points,
            default_sample_points(len(points), n_samples),
            callback=measure,
        )
        series.append(
            LoadBalanceSeries(
                strategy,
                tuple(samples),
                measure_query_balance(
                    index,
                    points,
                    skew=query_skew,
                    n_queries=n_queries,
                    seed=seed,
                ),
            )
        )
    return series
