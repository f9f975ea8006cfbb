"""Fig. 7 — range-query performance.

Builds each index over the dataset, then runs batches of uniformly
placed rectangles per *range span* (rectangle area) and reports the two
measures of Section 7.4 per query: bandwidth (number of DHT-lookups)
and latency (rounds of DHT-lookups).  m-LIGHT appears three times:
basic, parallel-2 and parallel-4.

Expected shape (paper): DST's bandwidth an order of magnitude above
everyone (its virtual depth D fragments ranges); m-LIGHT basic the most
bandwidth-efficient; the parallel variants spend more bandwidth to cut
latency; DST latency lowest for tiny ranges but growing steeply with
span as saturated nodes force descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.common.config import IndexConfig
from repro.common.geometry import Point
from repro.common.rng import derive_seed
from repro.experiments.harness import load_index, mean_query_costs
from repro.workloads.queries import uniform_range_queries

#: (display name, scheme, range_query options) rows of Fig. 7.
FIG7_VARIANTS = (
    ("mlight-basic", "mlight", {"lookahead": 1}),
    ("mlight-parallel-2", "mlight", {"lookahead": 2}),
    ("mlight-parallel-4", "mlight", {"lookahead": 4}),
    ("pht", "pht", {}),
    ("dst", "dst", {}),
)

DEFAULT_SPANS = (0.05, 0.1, 0.2, 0.4, 0.6)


@dataclass(frozen=True, slots=True)
class RangeQuerySeries:
    """One curve: mean per-query costs by range span."""

    variant: str
    spans: tuple[float, ...]
    bandwidth: tuple[float, ...]
    latency: tuple[float, ...]

    PIVOT = (
        "variant",
        "spans",
        (
            ("bandwidth", "Bandwidth (# of DHT-lookups per query)"),
            ("latency", "Latency (rounds of DHT-lookups per query)"),
        ),
    )


def run_rangequery_experiment(
    points: Sequence[Point],
    config: IndexConfig,
    spans: Sequence[float] = DEFAULT_SPANS,
    queries_per_span: int = 10,
    seed: int = 0,
) -> list[RangeQuerySeries]:
    """Reproduce Figs. 7a/7b over *points*."""
    # One index per scheme, reused across spans (the workload is
    # read-only).  m-LIGHT variants share a single index instance.
    indexes: dict[str, object] = {}
    for _, scheme, _ in FIG7_VARIANTS:
        if scheme not in indexes:
            indexes[scheme] = load_index(scheme, config, points)

    workloads = {
        span: uniform_range_queries(
            queries_per_span,
            span,
            dims=config.dims,
            seed=derive_seed(seed, "fig7", span),
        )
        for span in spans
    }

    series = []
    for variant, scheme, options in FIG7_VARIANTS:
        costs = [
            mean_query_costs(indexes[scheme], workloads[span], **options)
            for span in spans
        ]
        series.append(
            RangeQuerySeries(
                variant,
                tuple(spans),
                tuple(lookups for lookups, _ in costs),
                tuple(rounds for _, rounds in costs),
            )
        )
    return series
