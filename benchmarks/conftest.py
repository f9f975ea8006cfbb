"""Shared fixtures for the benchmark suite.

``benchmarks/`` asserts: every module states paper claims or plane
gates over deterministic counts (DHT-lookups, records moved, rounds,
simulated-clock time) and publishes the count tables as ``.txt`` under
``results/``.  What a table runs on — slice, config, sweep, title, file
— is the catalogue's (``repro.experiments.catalogue``); a fixture here
names an entry and asserts over its result.  ``benchmarks/`` measures
nothing — wall-clock numbers come from ``perf/`` (``BENCHMARK.json``)
alone — except for three *ratio* gates that no ``perf/`` workload
covers yet; they share :func:`best_rate`, assert, and write nothing.

Scale control:

* default — a 12,000-point slice of the NE surrogate, so the whole
  suite finishes in a couple of minutes;
* ``REPRO_BENCH_SIZE=<n>`` — explicit cardinality;
* ``REPRO_BENCH_FULL=1`` — the paper's full 123,593 points.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.datasets.northeast import NE_CARDINALITY, northeast_surrogate
from repro.experiments.catalogue import (
    BY_KEY,
    PAPER_CONFIG,
    run,
    table,
    write_table,
)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def bench_size() -> int:
    if os.environ.get("REPRO_BENCH_FULL"):
        return NE_CARDINALITY
    return int(os.environ.get("REPRO_BENCH_SIZE", "12000"))


@pytest.fixture(scope="session")
def dataset():
    """The NE surrogate at the configured scale."""
    return northeast_surrogate(bench_size())


@pytest.fixture(scope="session")
def paper_config():
    """The paper's Section 7 parameters (D=28, theta=100, eps=70)."""
    return PAPER_CONFIG


def publish(key: str, dataset):
    """Run catalogue entry *key* on *dataset* (seed 0), persist and
    print its table; returns the run's result for the assertions."""
    entry = BY_KEY[key]
    result = run(entry, dataset)
    publish_text(entry.file, table(entry, result), dataset)
    return result


def publish_text(name: str, text: str, dataset) -> None:
    """Persist *text* under results/ with the session's stamp and print
    it.  Called directly only for the two tables formatted by hand."""
    write_table(RESULTS_DIR, name, text, scale=len(dataset), seed=0)
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}")


def assert_claims(checks: list[tuple[str, bool]]) -> None:
    """Fail naming every ``(description, holds?)`` claim that does not
    hold — the shape ``repro.experiments.report.check_fig*`` return."""
    failed = [description for description, holds in checks if not holds]
    assert not failed, f"claims not reproduced: {failed}"


def best_rate(fn, ops: int) -> float:
    """Best observed operations/second of *fn*, which performs *ops*
    operations per call: three half-second windows, the fastest kept.

    The only timing loop under ``benchmarks/``.  Callers compare two
    rates measured back to back on one machine and assert the ratio;
    an absolute rate is ``perf/``'s to report.
    """
    best = 0.0
    for _ in range(3):
        rounds = 0
        start = time.perf_counter()
        elapsed = 0.0
        while elapsed < 0.5:
            fn()
            rounds += 1
            elapsed = time.perf_counter() - start
        best = max(best, ops * rounds / elapsed)
    return best
