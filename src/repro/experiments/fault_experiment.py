"""E12 — recall and retry cost vs injected fault rate (degraded mode).

E10 measures what *peer loss* costs the index; this experiment
measures what *message loss* costs it, and what the resilience stack
(retries with backoff below, partial results above) buys back.  The
setup stacks the fault plane under the retry wrapper::

    MLightIndex -> RetryingDht -> FaultyDht -> ChordDht

and sweeps the injected fault rate (half drops, half timeouts) against
the replication factor.  Each run also crashes one peer mid-way — with
stabilization and replica repair — so the replication axis is
exercised the way E10 exercises it, while the fault axis stresses the
query path on top.

Ground truth is collected with injection suspended; the fault plan is
seeded per cell, so every cell (and the whole table) is reproducible
bit-for-bit from the experiment seed.

Expected shape: at rate 0 the table reduces to E10's story
(replication >= 2 repairs the crash; recall 1.0).  As the rate grows,
a probe only stays unanswered when *every* retry attempt faults, so
recall erodes slowly (≈ rate^attempts per probe) while the retry and
backoff counters — the price paid for that recall — grow steeply.
Queries never abort: unreachable subregions surface as
``complete=False`` partial results, counted in the ``degraded``
column.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.common.config import IndexConfig
from repro.common.geometry import Point
from repro.common.rng import derive_seed
from repro.dht.faults import FaultPlan, FaultyDht
from repro.dht.retry import RetryingDht
from repro.experiments.harness import (
    build_index,
    crash_and_repair,
    recall,
    truth_sets,
)
from repro.obs.registry import MetricsRegistry
from repro.runtime import create_dht
from repro.workloads.queries import uniform_range_queries

__all__ = ["FaultRecallSample", "run_fault_recall"]


@dataclass(frozen=True, slots=True)
class FaultRecallSample:
    """One (replication, fault-rate) cell of the E12 sweep."""

    replication: int
    fault_rate: float
    recall: float
    degraded: int  # queries answered with complete=False
    failed: int  # queries lost to tree damage (crash, replication 1)
    retries: int
    backoff_waits: int
    faults_injected: int
    backoff_time: float


def run_fault_recall(
    points: Sequence[Point],
    config: IndexConfig,
    fault_rates: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    replication_factors: Sequence[int] = (1, 2, 3),
    n_peers: int = 16,
    n_queries: int = 12,
    span: float = 0.1,
    attempts: int = 3,
    seed: int = 0,
) -> list[FaultRecallSample]:
    """Sweep injected fault rate x replication factor.

    Each cell builds a fresh index, crashes one peer (stabilizing and
    repairing replicas), then answers *n_queries* range queries with
    faults injected at *fault_rates* — reads, writes and lookups alike
    — through a retry wrapper with exponential backoff.  Recall is the
    fraction of the fault-free answer still returned.
    """
    queries = uniform_range_queries(
        n_queries, span, dims=config.dims, seed=seed
    )
    samples = []
    for replication in replication_factors:
        for rate in fault_rates:
            chord = create_dht(
                overlay="chord", n_peers=n_peers, replication=replication
            )
            plan = FaultPlan(
                derive_seed(seed, "e12", replication, rate),
                drop_rate=rate / 2.0,
                timeout_rate=rate / 2.0,
            )
            faulty = FaultyDht(chord, plan)
            dht = RetryingDht(
                faulty,
                attempts=attempts,
                backoff_base=0.05,
                jitter=0.01,
                seed=derive_seed(seed, "e12-backoff", replication, rate),
            )
            # Bootstrapping the root goes through the fault plan (it
            # draws from the cell's seed); loading the data does not.
            index = build_index("mlight", config, dht=dht)
            with faulty.suspended():
                for point in points:
                    index.insert(point)
                truth = truth_sets(index, queries)
            # One mid-run crash (the same victim for every cell),
            # repaired when replication allows, so the replication axis
            # carries E10's meaning here too.
            crash_and_repair(chord, 1, seed + 1)

            meters = MetricsRegistry.for_index(index)
            before = meters.snapshot()
            after = recall(index, queries, truth)
            spent = meters.delta(before)
            samples.append(
                FaultRecallSample(
                    replication=replication,
                    fault_rate=rate,
                    recall=after.recall,
                    degraded=after.degraded,
                    failed=after.failed,
                    retries=spent["dht.retries"],
                    backoff_waits=spent["dht.backoff_waits"],
                    faults_injected=sum(
                        count
                        for meter, count in spent.items()
                        if meter.startswith("dht.faults_")
                    ),
                    backoff_time=spent["dht.backoff_time"],
                )
            )
    return samples
