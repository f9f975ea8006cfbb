"""The benchmark's workloads: which runtime, which data, which request mix.

Every workload replays a fixed, seeded operation list with *exact*
per-kind counts over a bulk-loaded base set of :data:`BASE_POINTS`
2-D points.  ``why`` records what each one is for (it is copied into
``BENCHMARK.json``); ``perf/README.md`` has the layer table.
"""

from __future__ import annotations

from dataclasses import dataclass

BASE_POINTS = 20_000


@dataclass(frozen=True)
class Workload:
    """One benchmark scenario.

    ``runtime`` are :func:`repro.runtime.create_dht` keyword arguments,
    ``index`` are :class:`repro.common.config.IndexConfig` overrides
    (everything else stays at the paper's defaults: D = 28,
    theta_split = 100, batched execution).  ``dataset`` names a
    generator in :mod:`repro.datasets`.  ``lookups`` / ``ranges`` /
    ``inserts`` are the exact per-kind operation counts; ``span`` is
    the range queries' volume.
    """

    name: str
    why: str
    runtime: dict
    index: dict
    dataset: str
    lookups: int
    ranges: int
    inserts: int
    span: float

    @property
    def n_ops(self) -> int:
        return self.lookups + self.ranges + self.inserts


_SIM = {"kind": "sim", "overlay": "local", "n_peers": 64}
_SERVICE = {"kind": "asyncio", "n_peers": 8}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim_query",
            why="read-mostly mix on the in-process runtime: labels, "
            "lookup, range query, plane, facade and store matching do "
            "all the work; wire, codec and journal do none",
            runtime=_SIM,
            index={"store": "columnar"},
            dataset="northeast_surrogate",
            lookups=1500,
            ranges=900,
            inserts=300,
            span=1e-4,
        ),
        Workload(
            name="sim_write",
            why="write-mostly mix on the same layers: insert, split and "
            "store add, with range queries paying the columnar store's "
            "snapshot rebuild after writes",
            runtime=_SIM,
            index={"store": "columnar"},
            dataset="northeast_surrogate",
            lookups=300,
            ranges=600,
            inserts=1500,
            span=1e-4,
        ),
        Workload(
            name="svc_scan",
            why="byte path for reads on the asyncio service runtime: "
            "pickled frames, loop bridge, actor inbox and codec replies; "
            "a 192-entry leaf cache (fewer than the leaves) removes probes",
            runtime=_SERVICE,
            index={"store": "numpy", "cache_capacity": 192},
            dataset="uniform_points",
            lookups=300,
            ranges=200,
            inserts=300,
            span=0.01,
        ),
        Workload(
            name="svc_journal",
            why="byte path for writes: every insert rewrites a bucket "
            "through codec, frame, peer store and the append log "
            "(flushed, not fsynced); lookups run the cold binary search",
            runtime={**_SERVICE, "durability": "log"},
            index={"store": "columnar", "durability": "log"},
            dataset="uniform_points",
            lookups=300,
            ranges=200,
            inserts=300,
            span=0.002,
        ),
    )
}
