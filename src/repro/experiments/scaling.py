"""E9 — scaling with dimensionality.

The paper develops every algorithm for general m and evaluates at
m = 2.  This experiment exercises the claim "all the algorithms
presented can be extended to an m-dimensional space in a natural way":
the same workload at m = 1..4, measuring lookup probes (should stay
O(log D), independent of m), range-query costs (grow with m — boundary
cells multiply), and tree size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence

from repro.common.config import IndexConfig
from repro.common.rng import derive_seed
from repro.datasets.synthetic import uniform_points
from repro.experiments.harness import load_index, mean_query_costs
from repro.workloads.queries import point_queries, uniform_range_queries


@dataclass(frozen=True, slots=True)
class DimensionalitySample:
    """Costs of the standard workload at one dimensionality."""

    dims: int
    tree_size: int
    mean_lookup_probes: float
    mean_query_lookups: float
    mean_query_rounds: float

    COLUMNS = (
        "dims", "tree_size",
        ("lookup probes", "mean_lookup_probes"),
        ("query lookups", "mean_query_lookups"),
        ("query rounds", "mean_query_rounds"),
    )


def run_dimensionality_sweep(
    n_points: int,
    config: IndexConfig,
    dims_list: Sequence[int] = (1, 2, 3, 4),
    span: float = 0.05,
    n_queries: int = 10,
    seed: int = 0,
) -> list[DimensionalitySample]:
    """Uniform data, fixed-volume queries, at each dimensionality."""
    samples = []
    for dims in dims_list:
        points = uniform_points(
            n_points, dims=dims, seed=derive_seed(seed, "points", dims)
        )
        index = load_index("mlight", replace(config, dims=dims), points)

        keys = point_queries(
            points, 50, seed=derive_seed(seed, "lookups", dims)
        )
        probes = sum(index.lookup(key).lookups for key in keys) / len(keys)

        queries = uniform_range_queries(
            n_queries, span, dims=dims,
            seed=derive_seed(seed, "queries", dims),
        )
        lookups, rounds = mean_query_costs(index, queries)
        samples.append(
            DimensionalitySample(
                dims=dims,
                tree_size=index.tree_size(),
                mean_lookup_probes=probes,
                mean_query_lookups=lookups,
                mean_query_rounds=rounds,
            )
        )
    return samples
