"""Shared experiment plumbing: worlds, progressive runs, recall.

Every runner builds its world through :func:`build_index` /
:func:`load_index`, so every scheme is constructed on an identical
fresh substrate with identical parameters — the setup of the paper's
Section 7.1 (Bamboo/OpenDHT with >100 logical peers becomes a 128-peer
consistent-hashing substrate; see DESIGN.md on why the metrics are
substrate independent).  The churn, fault and restart experiments
share one recall measure: :func:`truth_sets` before the damage,
:func:`recall` after it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.common.config import IndexConfig
from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.geometry import Point, Region
from repro.common.rng import make_rng
from repro.core.index import MLightIndex
from repro.baselines.dst import DstIndex
from repro.baselines.naive import NaiveTreeIndex
from repro.baselines.pht import PhtIndex
from repro.dht.api import Dht
from repro.runtime import RuntimeConfig, create_dht

#: Peers in the simulated substrate (the paper runs "more than one
#: hundred logical peers").
DEFAULT_PEERS = 128

#: Scheme name -> (index class, config fields it overrides).
SCHEMES = {
    "mlight": (MLightIndex, {}),
    "mlight-da": (MLightIndex, {"strategy": "data-aware"}),
    "pht": (PhtIndex, {}),
    "dst": (DstIndex, {}),
    "naive": (NaiveTreeIndex, {}),
}
SCHEME_NAMES = tuple(SCHEMES)


def build_index(
    scheme: str, config: IndexConfig, dht: Dht | None = None, **world
):
    """Construct one index instance of *scheme* on a fresh substrate.

    Schemes: ``mlight`` (threshold splitting), ``mlight-da``
    (data-aware splitting), ``pht``, ``dst``, ``naive`` (identity
    mapping ablation).

    The substrate comes from :func:`repro.runtime.create_dht`: by
    default the runtime kind named by ``config.runtime`` (``"sim"``
    unless an experiment opts into the service plane) with
    ``DEFAULT_PEERS`` peers; *world* overrides fields of that
    :class:`~repro.runtime.RuntimeConfig` (``overlay="chord"``,
    ``n_peers=16``, ``replication=3`` ...), or pass *dht* to reuse an
    existing substrate.  Service substrates are the caller's to
    ``close()``.
    """
    if scheme not in SCHEMES:
        raise ReproError(
            f"unknown scheme {scheme!r}; expected one of {SCHEME_NAMES}"
        )
    if dht is None:
        dht = create_dht(
            RuntimeConfig(
                kind=config.runtime,
                n_peers=DEFAULT_PEERS,
                durability=config.durability,
            ),
            **world,
        )
    index_class, overrides = SCHEMES[scheme]
    return index_class(dht, replace(config, **overrides))


def load_index(scheme: str, config: IndexConfig, points, **world):
    """:func:`build_index` (*world* is passed on), then insert *points*
    in order; returns the loaded index."""
    index = build_index(scheme, config, **world)
    for point in points:
        index.insert(point)
    return index


def mean_query_costs(index, queries, **options) -> tuple[float, float]:
    """Mean DHT-lookups and mean rounds per range query: the bandwidth
    and latency measures of Section 7.4."""
    results = [index.range_query(query, **options) for query in queries]
    return (
        sum(result.lookups for result in results) / len(results),
        sum(result.rounds for result in results) / len(results),
    )


def crash_and_repair(dht: Dht, n_crashes: int, seed: int) -> None:
    """Fail *n_crashes* peers drawn from *seed*, one at a time, with
    stabilization and replica repair after each."""
    rng = make_rng(seed)
    for _ in range(n_crashes):
        victims = dht.peers()
        dht.fail(victims[rng.randrange(len(victims))])
        dht.stabilize_all(3)
        dht.repair_replicas()


def truth_sets(index, queries: Sequence[Region]) -> list[set[Point]]:
    """The keys each query returns now: the reference :func:`recall`
    measures a damaged index against."""
    return [
        {record.key for record in index.range_query(query).records}
        for query in queries
    ]


class Recall(NamedTuple):
    """How much of the *truth* answers a damaged index still returns."""

    recall: float  # fraction of the expected keys returned
    degraded: int  # queries answered with complete=False
    failed: int  # queries lost outright to tree damage


def recall(
    index, queries: Sequence[Region], truth: Sequence[set[Point]]
) -> Recall:
    """Re-run *queries* and compare with :func:`truth_sets`' answer.

    A query that fails outright (lost buckets can leave a descent path
    unresolvable) contributes zero recall for its expected answers.
    """
    matched = total = degraded = failed = 0
    for query, expected in zip(queries, truth):
        total += len(expected)
        try:
            result = index.range_query(query)
        except NodeUnreachableError:  # pragma: no cover
            raise AssertionError(
                "degraded mode must never surface unreachability"
            ) from None
        except ReproError:
            failed += 1
            continue
        matched += len({record.key for record in result.records} & expected)
        degraded += not result.complete
    return Recall(matched / total if total else 1.0, degraded, failed)


@dataclass(slots=True)
class ProgressiveSample:
    """Cumulative maintenance costs after ``inserted`` insertions."""

    inserted: int
    lookups: int
    records_moved: int


def progressive_insert(
    index,
    points: Sequence[Point],
    sample_at: Iterable[int],
    callback: Callable[[int], None] | None = None,
) -> list[ProgressiveSample]:
    """Insert *points* in order, snapshotting cumulative costs.

    *sample_at* lists insertion counts (ascending) at which to record a
    :class:`ProgressiveSample`; *callback* additionally fires at each
    sample point (e.g. to measure load balance).
    """
    targets = sorted(set(sample_at))
    samples: list[ProgressiveSample] = []
    next_target = 0
    for count, point in enumerate(points, start=1):
        index.insert(point)
        if next_target < len(targets) and count == targets[next_target]:
            stats = index.dht.stats
            samples.append(
                ProgressiveSample(count, stats.lookups, stats.records_moved)
            )
            if callback is not None:
                callback(count)
            next_target += 1
    return samples


def default_sample_points(total: int, samples: int = 6) -> list[int]:
    """Evenly spaced sample sizes ending at *total* (Fig. 5a style)."""
    if total < 1:
        raise ReproError("total must be >= 1")
    samples = max(1, min(samples, total))
    return [round(total * (index + 1) / samples) for index in range(samples)]
