"""The experiment catalogue: every published table, parameterised once.

One :class:`Entry` per table — Figs. 5-7, ablations A1-A5, extensions
E9-E15 — naming its key, title, output file, the
slice of the dataset it runs on, its config, its sweep values and its
``run_*`` function.  ``run_all``, the ``benchmarks/`` fixtures and
``report.py`` all go through :func:`run` and :func:`table`, so a table
has the same parameters whoever produces it; :func:`write_table` stamps
what reaches ``results/`` with the scale, seed and commit it came from.
The ``run_*`` functions keep their keyword parameters for tests that
drive them at miniature scale; nothing else binds them.
"""

from __future__ import annotations

import subprocess
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Any

from repro.common.config import IndexConfig
from repro.common.geometry import Point
from repro.experiments import (
    ablation,
    charts,
    churn_experiment,
    fault_experiment,
    fig5,
    fig6,
    fig7,
    mcast_experiment,
    mixed_workload,
    restart_experiment,
    scaling,
    skew_experiment,
)
from repro.experiments.tables import pivot, render
from repro.workloads.queries import point_queries

#: The paper's Section 7 setup (D = 28, theta_split = 100, epsilon = 70).
PAPER_CONFIG = IndexConfig(
    dims=2, max_depth=28, split_threshold=100,
    merge_threshold=50, expected_load=70,
)

#: E10/E12 rebuild a 16-peer ring per cell: a shallower tree of smaller
#: buckets spreads 1,200-1,500 points over every peer.
REDUCED_CONFIG = IndexConfig(
    dims=2, max_depth=18, split_threshold=50, merge_threshold=25
)


@dataclass(frozen=True, slots=True)
class Entry:
    """One published table.

    ``run(points, config, **params)`` produces the result; *seeded*
    entries draw a workload and also receive ``seed=``.
    ``layout(result, title)`` turns the result into text: one
    :func:`~repro.experiments.tables.render` table by default; for the
    pivoted figures, whose tables are titled by measure, *title* names
    the x column; a file of several tables carries one title each.
    """

    key: str
    file: str
    run: Callable[..., Any]
    title: str | tuple[str, ...]
    heading: str | None = None  # run_all's section line; default: title
    cap: int | None = None  # runs on dataset[:cap]
    config: IndexConfig = PAPER_CONFIG
    params: Mapping[str, Any] = field(default_factory=dict)
    seeded: bool = True
    layout: Callable[[Any, Any], str] = render
    charts: tuple[Callable[[Any], str], ...] = ()


def _replay(run_ablation: Callable[..., Any]) -> Callable[..., Any]:
    """A2/A5 replay lookups of keys drawn from the points (on
    ``seed + 1``: seed 0 keeps the draw the published A2 table used)."""

    def bound(points, config, *, n_keys: int, seed: int):
        keys = point_queries(points, n_keys, seed=seed + 1)
        return run_ablation(points, keys, config)

    return bound


def _run_e9(points, config, **params):
    """E9 draws uniform data per dimensionality; the slice sets how much."""
    return scaling.run_dimensionality_sweep(len(points), config, **params)


def _run_e13(points, config, **params):
    """Stream length scaled so the measured window dominates warm-up."""
    if len(points) >= 100_000:
        n_ops = 8000
    elif len(points) >= 8000:
        n_ops = 4000
    else:
        n_ops = 2000
    return skew_experiment.run_skew_experiment(
        points, config, n_ops=n_ops, **params
    )


def _run_e15(points, config, seed: int):
    return (
        mcast_experiment.run_multicast_efficiency(points, config, seed=seed),
        [mcast_experiment.run_continuous_query(points, config)],
    )


def _fig6_layout(series: Sequence[fig6.LoadBalanceSeries], titles) -> str:
    storage = [sample for entry in series for sample in entry.samples]
    return "\n".join(map(render, (storage, series), titles))


def _e13_layout(samples, title: str) -> str:
    return render(samples, title) + "\n" + skew_experiment.adaptive_tallies(
        samples
    )


def _e15_layout(tables, titles) -> str:
    return "\n\n".join(map(render, tables, titles))


E13_SKEW = 1.1

CATALOGUE: tuple[Entry, ...] = (
    Entry(
        "fig5ab", "fig5ab_maintenance_vs_datasize.txt",
        fig5.run_datasize_sweep, "data size",
        heading="Figs. 5a/5b: maintenance cost vs data size",
        params={"samples": 6}, seeded=False, layout=pivot,
        charts=(
            partial(charts.chart_maintenance, measure="lookups"),
            partial(charts.chart_maintenance, measure="moved"),
        ),
    ),
    Entry(
        "fig5cd", "fig5cd_maintenance_vs_threshold.txt",
        fig5.run_threshold_sweep, "theta_split",
        heading="Figs. 5c/5d: maintenance cost vs theta_split", cap=8000,
        params={"thresholds": (50, 100, 300, 600, 900)},
        seeded=False, layout=pivot,
    ),
    Entry(
        "fig6ab", "fig6ab_load_balance.txt", fig6.run_loadbalance_experiment,
        ("Storage load balance", "Query load balance (skewed lookups)"),
        heading="Figs. 6a/6b: storage load balance",
        params={"n_samples": 6}, layout=_fig6_layout,
        charts=(partial(charts.chart_loadbalance, measure="empty"),),
    ),
    Entry(
        "fig7ab", "fig7ab_range_query.txt",
        fig7.run_rangequery_experiment, "range span",
        heading="Figs. 7a/7b: range-query performance",
        params={"queries_per_span": 10}, layout=pivot,
        charts=(
            partial(charts.chart_rangequery, measure="bandwidth"),
            partial(charts.chart_rangequery, measure="latency"),
        ),
    ),
    Entry(
        "a1", "ablation_a1_naming.txt", ablation.run_naming_ablation,
        "A1: naming function vs naive mapping", cap=8000, seeded=False,
    ),
    Entry(
        "a2", "ablation_a2_lookup.txt", _replay(ablation.run_lookup_ablation),
        "A2: binary search vs linear probing", cap=8000,
        params={"n_keys": 300},
    ),
    Entry(
        "a3", "ablation_a3_substrates.txt", ablation.run_substrate_ablation,
        "A3: DHT substrate swap", cap=1500,
        params={"n_peers": 16}, seeded=False,
    ),
    Entry(
        "a4", "ablation_a4_bulkload.txt", ablation.run_bulkload_ablation,
        "A4: bulk load vs incremental build", cap=4000, seeded=False,
    ),
    Entry(
        "a5", "ablation_a5_cache.txt", _replay(ablation.run_cache_ablation),
        "A5: client leaf cache", cap=8000, params={"n_keys": 300},
    ),
    Entry(
        "e9", "e9_dimensionality.txt", _run_e9,
        "E9: scaling with dimensionality", cap=3000,
        params={"dims_list": (1, 2, 3, 4)},
    ),
    Entry(
        "e10", "e10_churn_availability.txt",
        churn_experiment.run_churn_availability,
        "E10: availability under churn", cap=1500, config=REDUCED_CONFIG,
        params={
            "replication_factors": (1, 2, 3), "n_peers": 16, "n_crashes": 3,
        },
    ),
    Entry(
        "e11", "e11_mixed_workload.txt", mixed_workload.run_mixed_workload,
        "E11: mixed insert/delete maintenance", cap=6000,
        params={"delete_fraction": 0.4},
    ),
    Entry(
        "e12", "e12_fault_recall.txt", fault_experiment.run_fault_recall,
        "E12: recall and retry cost vs fault rate", cap=1200,
        config=REDUCED_CONFIG,
        params={
            "fault_rates": (0.0, 0.1, 0.2, 0.3),
            "replication_factors": (1, 2, 3),
            "n_peers": 16,
        },
    ),
    Entry(
        "e13", "e13_adaptive_skew.txt", _run_e13,
        f"E13: skewed reads (zipf s={E13_SKEW})",
        params={"skew": E13_SKEW}, layout=_e13_layout,
    ),
    Entry(
        "e14", "e14_restart_recovery.txt",
        restart_experiment.run_restart_recovery,
        "E14: crash-restart recovery", cap=2000,
    ),
    Entry(
        "e15", "e15_mcast.txt", _run_e15,
        (
            "E15a: prefix multicast vs client fan-out",
            "E15b: continuous query through churn and crash-restart",
        ),
        heading="E15: prefix multicast + continuous queries",
        cap=2000, layout=_e15_layout,
    ),
)

BY_KEY = {entry.key: entry for entry in CATALOGUE}


def run(
    entry: Entry, dataset: Sequence[Point], seed: int = 0, **overrides: Any
) -> Any:
    """Run *entry* on its slice of *dataset*.

    *overrides* replace sweep values the entry declares (``run_all
    --queries``); one it does not declare is ignored.  The seed reaches
    every entry that draws a workload, by construction.
    """
    params = dict(entry.params)
    params.update(
        (name, value) for name, value in overrides.items() if name in params
    )
    if entry.seeded:
        params["seed"] = seed
    return entry.run(dataset[: entry.cap], entry.config, **params)


def table(entry: Entry, result: Any) -> str:
    """The text of *entry*'s table for a :func:`run` result."""
    return entry.layout(result, entry.title)


@cache
def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def stamp(scale: int, seed: int) -> str:
    """The line saying which dataset scale, seed and commit a table (or
    a ``run_all`` transcript) came from."""
    return f"# scale={scale} seed={seed} commit={_commit()}"


def write_table(
    directory: str | Path, name: str, text: str, scale: int, seed: int
) -> Path:
    """Write *text* to ``directory/name`` under its :func:`stamp`."""
    path = Path(directory) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"{stamp(scale, seed)}\n{text}\n")
    return path
