"""Ablations beyond the paper's figures.

A1 — **naming function**: m-LIGHT versus the identity label-to-key
mapping (:class:`~repro.baselines.naive.NaiveTreeIndex`).  Quantifies
what Theorem 5 buys: halved split transfers and O(log D) lookups.

A2 — **lookup search**: binary search over the candidate set versus
linear root-down probing, on the same m-LIGHT index.

A3 — **substrate swap**: the same insertion + query workload on
LocalDht, Chord, Kademlia and Pastry.  The index-level counters must
agree exactly (over-DHT layering); only overlay hops differ.

A4 — **bulk loading vs incremental insertion**: the static Theorem-6
construction against per-record maintenance, in both cost and balance.

A5 — **client leaf cache**: the same skewed lookup replay with no
cache, a cold cache, and a cache pre-warmed by a first replay pass.
Hint probes are metered DHT-gets, so the table reports honest costs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence

from repro.common.config import IndexConfig
from repro.common.errors import IndexCorruptionError
from repro.common.geometry import Point
from repro.common.labels import candidate_string
from repro.core.index import MLightIndex
from repro.core.keys import bucket_key
from repro.core.naming import name_run_end, naming_function
from repro.dht.api import Dht, DhtStats
from repro.experiments.harness import load_index
from repro.runtime import OVERLAYS, create_dht


@dataclass(frozen=True, slots=True)
class AblationRow:
    """One configuration's aggregate costs."""

    name: str
    lookups: int
    records_moved: int = 0
    hops: int = 0

    COLUMNS = (
        ("configuration", "name"), ("DHT-lookups", "lookups"),
        "records_moved", "hops",
    )

    @classmethod
    def of(cls, name: str, stats: DhtStats) -> "AblationRow":
        """The construction costs a substrate's meters hold."""
        return cls(name, stats.lookups, stats.records_moved, stats.hops)


def run_naming_ablation(
    points: Sequence[Point], config: IndexConfig
) -> list[AblationRow]:
    """A1: insert the dataset under m-LIGHT and the naive mapping."""
    return [
        AblationRow.of(name, load_index(scheme, config, points).dht.stats)
        for name, scheme in (("mlight", "mlight"), ("naive-mapping", "naive"))
    ]


def lookup_point_linear(
    dht: Dht, point: Point, dims: int, max_depth: int
) -> int:
    """Linear-probe lookup on an m-LIGHT index; returns probe count.

    Walks candidate lengths from the root downward, still skipping
    whole name runs (anything less would be a strawman).
    """
    candidate = candidate_string(point, max_depth)
    length = dims + 1
    probes = 0
    while length <= len(candidate):
        name = naming_function(candidate[:length], dims)
        probes += 1
        bucket = dht.get(bucket_key(name))
        if bucket is not None and bucket.covers(point):
            return probes
        length = name_run_end(candidate, len(name), dims) + 1
    raise IndexCorruptionError(f"linear lookup of {point} failed")


def run_lookup_ablation(
    points: Sequence[Point],
    lookup_keys: Sequence[Point],
    config: IndexConfig,
) -> list[AblationRow]:
    """A2: binary-search vs linear lookup probe counts."""
    index = load_index("mlight", config, points)

    binary_probes = 0
    for key in lookup_keys:
        binary_probes += index.lookup(key).lookups
    linear_probes = 0
    for key in lookup_keys:
        linear_probes += lookup_point_linear(
            index.dht, key, config.dims, config.max_depth
        )
    return [
        AblationRow("binary-search", binary_probes),
        AblationRow("linear-probing", linear_probes),
    ]


def run_substrate_ablation(
    points: Sequence[Point],
    config: IndexConfig,
    n_peers: int = 16,
) -> list[AblationRow]:
    """A3: identical workload over all four substrates.

    Raises :class:`IndexCorruptionError` if the index-level counters
    diverge across substrates — that would mean the index leaked
    substrate details through the facade.
    """
    rows = [
        AblationRow.of(
            overlay,
            load_index(
                "mlight", config, points, overlay=overlay, n_peers=n_peers
            ).dht.stats,
        )
        for overlay in OVERLAYS
    ]
    reference = rows[0]
    for row in rows[1:]:
        if (
            row.lookups != reference.lookups
            or row.records_moved != reference.records_moved
        ):
            raise IndexCorruptionError(
                "index-level costs differ across substrates: "
                f"{reference} vs {row}"
            )
    return rows


def run_bulkload_ablation(
    points: Sequence[Point], config: IndexConfig
) -> list[AblationRow]:
    """A4: construction cost of bulk loading vs incremental inserts.

    Both use the data-aware strategy; bulk loading applies it once at
    the root (the static optimum of Theorem 6).
    """
    from repro.core.bulkload import bulk_load
    from repro.core.split import DataAwareSplit

    bulk_dht = create_dht()
    bulk_load(bulk_dht, points, config, DataAwareSplit(config.expected_load))
    incremental = load_index("mlight-da", config, points)
    return [
        AblationRow.of("bulk-load", bulk_dht.stats),
        AblationRow.of("incremental", incremental.dht.stats),
    ]


def run_cache_ablation(
    points: Sequence[Point],
    lookup_keys: Sequence[Point],
    config: IndexConfig,
    cache_capacity: int = 512,
) -> list[AblationRow]:
    """A5: no cache vs cold cache vs warmed cache on a lookup replay.

    All three configurations replay the same *lookup_keys* against the
    same loaded index.  ``warm-cache`` replays them twice and reports
    only the second pass, so every hot leaf is already cached.
    """
    index = load_index("mlight", config, points)
    dht = index.dht

    def replay(client: MLightIndex) -> int:
        before = dht.stats.lookups
        for key in lookup_keys:
            client.lookup(key)
        return dht.stats.lookups - before

    rows = [AblationRow("no-cache", replay(index))]

    cached = MLightIndex(
        dht, replace(config, cache_capacity=cache_capacity)
    )
    rows.append(AblationRow("cold-cache", replay(cached)))
    rows.append(AblationRow("warm-cache", replay(cached)))
    return rows
