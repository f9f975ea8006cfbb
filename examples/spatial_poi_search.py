"""Spatial point-of-interest search over the NE postal-address surrogate.

Recreates the paper's evaluation setting in miniature: a clustered
2-D address dataset distributed over a 128-peer DHT, queried with
rectangles of growing size.  Also contrasts the threshold and
data-aware splitting strategies on the same data (Section 4).

Run with::

    python examples/spatial_poi_search.py [n_points]

Set ``REPRO_STORE=columnar|numpy`` to pick the bucket record-store
backend; answers are identical, only query throughput changes.
"""

import os
import sys
from dataclasses import replace

from repro import IndexConfig, MLightIndex, Region, RuntimeConfig, create_dht
from repro.datasets.northeast import northeast_surrogate
from repro.metrics.loadbalance import empty_bucket_fraction

def build(strategy: str, points, config: IndexConfig) -> MLightIndex:
    dht = create_dht(RuntimeConfig(n_peers=128, virtual_nodes=16))
    index = MLightIndex(dht, replace(config, strategy=strategy))
    for position, point in enumerate(points):
        index.insert(point, value=f"address-{position}")
    return index


def main() -> None:
    n_points = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    config = IndexConfig(dims=2, max_depth=24, split_threshold=50,
                         merge_threshold=25, expected_load=35,
                         store=os.environ.get("REPRO_STORE", "columnar"))
    print(f"generating {n_points} NE-surrogate postal addresses...")
    points = northeast_surrogate(n_points)

    for strategy in ("threshold", "data-aware"):
        index = build(strategy, points, config)
        buckets = list(index.buckets())
        stats = index.dht.stats
        print(f"\n[{strategy}] tree size {len(buckets)}, "
              f"maintenance: {stats.lookups} DHT-lookups, "
              f"{stats.records_moved} records moved, "
              f"{100 * empty_bucket_fraction(buckets):.2f}% empty buckets")

        # A downtown query (dense) and a regional query (sparse+dense).
        queries = {
            "downtown NYC":
                Region((0.45, 0.42), (0.52, 0.49)),
            "NY metro region":
                Region((0.36, 0.30), (0.66, 0.60)),
            "open Atlantic (empty)":
                Region((0.80, 0.05), (0.95, 0.20)),
        }
        for name, query in queries.items():
            result = index.range_query(query)
            print(f"  {name:<24} {len(result.records):>6} hits, "
                  f"{result.lookups:>4} lookups, "
                  f"{result.rounds} rounds")


if __name__ == "__main__":
    main()
