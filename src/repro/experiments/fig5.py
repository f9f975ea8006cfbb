"""Fig. 5 — index maintenance cost.

Figs. 5a/5b: insert the dataset progressively and report cumulative
DHT-lookup and data-movement cost at increasing data sizes, for
m-LIGHT, PHT and DST.  Figs. 5c/5d: insert the full dataset once per
``theta_split`` value and report the totals.

Expected shape (paper): all curves linear in data size; DST an order
of magnitude above the others (replication); m-LIGHT ~40% below PHT;
both measures largely insensitive to ``theta_split`` except DST's
movement, which falls as smaller thresholds saturate its internal
nodes earlier.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence

from repro.common.config import IndexConfig
from repro.common.geometry import Point
from repro.experiments.harness import (
    build_index,
    default_sample_points,
    load_index,
    progressive_insert,
)

#: The schemes Fig. 5 compares.
FIG5_SCHEMES = ("mlight", "pht", "dst")


@dataclass(frozen=True, slots=True)
class MaintenanceSeries:
    """One curve: cumulative costs per sampled x value."""

    scheme: str
    xs: tuple[int, ...]
    lookups: tuple[int, ...]
    records_moved: tuple[int, ...]

    PIVOT = (
        "scheme",
        "xs",
        (
            ("lookups", "DHT-lookup cost"),
            ("records_moved", "Data-movement cost"),
        ),
    )


def run_datasize_sweep(
    points: Sequence[Point],
    config: IndexConfig,
    samples: int = 6,
    schemes: Sequence[str] = FIG5_SCHEMES,
) -> list[MaintenanceSeries]:
    """Figs. 5a/5b: cumulative maintenance cost vs data size."""
    sample_at = default_sample_points(len(points), samples)
    series = []
    for scheme in schemes:
        index = build_index(scheme, config)
        recorded = progressive_insert(index, points, sample_at)
        series.append(
            MaintenanceSeries(
                scheme,
                tuple(sample.inserted for sample in recorded),
                tuple(sample.lookups for sample in recorded),
                tuple(sample.records_moved for sample in recorded),
            )
        )
    return series


def run_threshold_sweep(
    points: Sequence[Point],
    config: IndexConfig,
    thresholds: Sequence[int] = (50, 100, 300, 600, 900),
    schemes: Sequence[str] = FIG5_SCHEMES,
) -> list[MaintenanceSeries]:
    """Figs. 5c/5d: total maintenance cost vs ``theta_split``.

    DST's saturation cap follows ``theta_split``, as in the paper's
    setup, which produces the Fig. 5d dip at small thresholds.
    """
    series = []
    for scheme in schemes:
        xs: list[int] = []
        lookups: list[int] = []
        moved: list[int] = []
        for threshold in thresholds:
            swept = replace(
                config,
                split_threshold=threshold,
                merge_threshold=threshold // 2,
            )
            stats = load_index(scheme, swept, points).dht.stats
            xs.append(threshold)
            lookups.append(stats.lookups)
            moved.append(stats.records_moved)
        series.append(
            MaintenanceSeries(scheme, tuple(xs), tuple(lookups), tuple(moved))
        )
    return series
