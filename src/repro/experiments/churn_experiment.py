"""E10 — index availability under churn, by replication factor.

The paper runs over Bamboo for robustness but does not quantify what
the index loses under churn.  This experiment does: an m-LIGHT tree on
a Chord ring with DHash-style successor replication; a burst of peer
crashes (with stabilization and replica repair between them); and the
*recall* of a fixed set of range queries afterwards — the fraction of
the pre-churn answer still returned.

Expected shape: recall grows with the replication factor and reaches
1.0 once the factor exceeds the largest number of simultaneously failed
consecutive replica holders; without replication, recall drops roughly
with the fraction of peers crashed (their buckets vanish wholesale).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.common.config import IndexConfig
from repro.common.geometry import Point
from repro.experiments.harness import (
    crash_and_repair,
    load_index,
    recall,
    truth_sets,
)
from repro.workloads.queries import uniform_range_queries


@dataclass(frozen=True, slots=True)
class ChurnAvailabilitySample:
    """Post-churn recall at one replication factor."""

    replication: int
    crashes: int
    recall: float
    queries_failed: int


def run_churn_availability(
    points: Sequence[Point],
    config: IndexConfig,
    replication_factors: Sequence[int] = (1, 2, 3),
    n_peers: int = 16,
    n_crashes: int = 3,
    n_queries: int = 12,
    span: float = 0.1,
    seed: int = 0,
) -> list[ChurnAvailabilitySample]:
    """Crash *n_crashes* peers under each replication factor."""
    queries = uniform_range_queries(
        n_queries, span, dims=config.dims, seed=seed
    )
    samples = []
    for replication in replication_factors:
        index = load_index(
            "mlight", config, points,
            overlay="chord", n_peers=n_peers, replication=replication,
        )
        truth = truth_sets(index, queries)
        # Same crash victims for every factor.
        crash_and_repair(index.dht, n_crashes, seed + 1)
        after = recall(index, queries, truth)
        samples.append(
            ChurnAvailabilitySample(
                replication=replication,
                crashes=n_crashes,
                recall=after.recall,
                queries_failed=after.failed,
            )
        )
    return samples
