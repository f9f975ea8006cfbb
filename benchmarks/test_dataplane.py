"""Data-plane benchmarks — the record-store backends head to head.

Runs the same workload through every registered bucket backend
(``columnar`` / ``numpy``):

* **bulk_load** — records/second through :func:`bulk_load` into a
  ``LocalDht``; the numpy backend is fed the coordinate *matrix* so the
  batch Morton/partition path (no per-record ``Record`` objects) is
  what gets timed;
* **fig7_query_throughput** — end-to-end range queries against the
  bulk-loaded index, queries/second per backend, after asserting every
  backend returns identical answers;
* **million_record_bulk_load** — the acceptance-scale run: 1,000,000
  uniform records through the numpy path (set
  ``REPRO_BENCH_MILLION=1``; skipped otherwise so CI stays fast).

Results merge into ``results/BENCH_dataplane.json``.  The CI gate: the
numpy backend's fig7 throughput must reach ``NUMPY_GATE`` (1.5x) of the
columnar backend's at benchmark scale — vectorized mask-reduction has
to actually pay for itself, not just pass equivalence.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.common.config import IndexConfig
from repro.common.geometry import Region
from repro.core import npstore
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.dht.localhash import LocalDht
from repro.workloads.queries import uniform_range_queries

from .conftest import RESULTS_DIR, bench_size, publish

REPORT_PATH = RESULTS_DIR / "BENCH_dataplane.json"

BACKENDS = ("columnar", "numpy")

#: numpy fig7 throughput must be at least this multiple of columnar's.
NUMPY_GATE = 1.5

#: The gate only bites at real benchmark scale — tiny buckets measure
#: dispatch overhead, not the scan the backends exist to accelerate.
GATE_MIN_SIZE = 8000

_N_QUERIES = 16
_QUERY_SPAN = 0.2


def dataplane_config(store: str) -> IndexConfig:
    """Paper geometry with buckets sized for backend comparison.

    Buckets hold ~size/8 records (never fewer than 200) so ``matching``
    dominates the query path; the paper's theta=100 buckets are too
    small to separate scan strategies.
    """
    threshold = max(200, bench_size() // 8)
    return IndexConfig(
        dims=2, max_depth=28, split_threshold=threshold,
        merge_threshold=threshold // 2, store=store,
    )


def bulk_items(store: str, dataset):
    """The natural bulk-load input for *store*: the numpy backend gets
    the coordinate matrix (batch path), the others the point list."""
    if store == "numpy" and npstore.HAVE_NUMPY:
        import numpy as np

        return np.asarray(dataset, dtype=np.float64)
    return dataset


@pytest.fixture(scope="module")
def report():
    baseline = {}
    if REPORT_PATH.exists():
        baseline = json.loads(REPORT_PATH.read_text())
    entries: dict[str, dict] = {}
    yield {"baseline": baseline, "entries": entries}
    if not entries:
        return
    merged = dict(baseline.get("entries", {}))
    merged.update(entries)
    document = {"bench_size": bench_size(), "entries": merged}
    publish("BENCH_dataplane.json", json.dumps(document, indent=2))


@pytest.mark.smoke
def test_bulk_load_rate(report, dataset):
    rates: dict[str, float] = {}
    for store in BACKENDS:
        config = dataplane_config(store)
        items = bulk_items(store, dataset)
        best = 0.0
        for _ in range(3):
            dht = LocalDht(64)
            start = time.perf_counter()
            placed = bulk_load(dht, items, config)
            elapsed = time.perf_counter() - start
            loaded = sum(load for _, load in placed)
            assert loaded == len(dataset)
            best = max(best, loaded / elapsed)
        rates[store] = round(best, 1)
    report["entries"]["bulk_load"] = {
        "records_per_sec": rates,
        "records": len(dataset),
    }
    assert all(rate > 0 for rate in rates.values())


@pytest.mark.smoke
def test_fig7_query_throughput(report, dataset):
    """Range-query throughput per backend, identical answers enforced.

    The CI gate lives here: numpy must clear ``NUMPY_GATE`` x columnar
    at benchmark scale, or the vectorized path has stopped earning its
    keep.
    """
    queries = uniform_range_queries(_N_QUERIES, _QUERY_SPAN, seed=20090622)
    rates: dict[str, float] = {}
    answers: dict[str, list] = {}
    for store in BACKENDS:
        config = dataplane_config(store)
        dht = LocalDht(64)
        bulk_load(dht, bulk_items(store, dataset), config)
        index = MLightIndex(dht, config)

        # Equivalence checked on sorted answers; the timed loop runs
        # the raw queries, so it measures the data plane rather than
        # the comparison scaffolding.
        answers[store] = [
            sorted(index.range_query(q).records, key=lambda r: r.key)
            for q in queries
        ]

        def run_queries():
            for q in queries:
                index.range_query(q)

        best = 0.0
        for _ in range(3):
            rounds = 0
            start = time.perf_counter()
            elapsed = 0.0
            while elapsed < 0.5:
                run_queries()
                rounds += 1
                elapsed = time.perf_counter() - start
            best = max(best, len(queries) * rounds / elapsed)
        rates[store] = round(best, 1)

    for store in BACKENDS[1:]:
        assert answers[store] == answers[BACKENDS[0]], (
            f"{store} answers differ from {BACKENDS[0]}'s"
        )

    entry: dict = {"queries_per_sec": rates}
    if npstore.HAVE_NUMPY:
        ratio = rates["numpy"] / rates["columnar"]
        entry["numpy_vs_columnar"] = round(ratio, 2)
        if bench_size() >= GATE_MIN_SIZE:
            assert ratio >= NUMPY_GATE, (
                f"numpy fig7 throughput {rates['numpy']:.0f} q/s is only "
                f"{ratio:.2f}x columnar's {rates['columnar']:.0f} q/s "
                f"(gate {NUMPY_GATE}x at size {bench_size()})"
            )
    report["entries"]["fig7_query_throughput"] = entry


@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_MILLION"),
    reason="set REPRO_BENCH_MILLION=1 for the 1M-record acceptance run",
)
@pytest.mark.skipif(
    not npstore.HAVE_NUMPY, reason="acceptance run exercises the numpy path"
)
def test_million_record_bulk_load(report):
    """Acceptance scale: one million records through the numpy path."""
    import numpy as np

    n_records = 1_000_000
    seed = np.random.default_rng(20090622)
    points = seed.random((n_records, 2))
    config = IndexConfig(
        dims=2, max_depth=28, split_threshold=4096,
        merge_threshold=2048, store="numpy",
    )
    dht = LocalDht(64)
    start = time.perf_counter()
    placed = bulk_load(dht, points, config)
    elapsed = time.perf_counter() - start
    assert sum(load for _, load in placed) == n_records

    index = MLightIndex(dht, config)
    rng = random.Random(20090622)
    for _ in range(4):
        x, y = rng.random() * 0.9, rng.random() * 0.9
        result = index.range_query(Region((x, y), (x + 0.05, y + 0.05)))
        expected = int(n_records * 0.05 * 0.05)
        assert 0.5 * expected <= len(result.records) <= 2.0 * expected

    report["entries"]["million_record_bulk_load"] = {
        "records": n_records,
        "seconds": round(elapsed, 2),
        "records_per_sec": round(n_records / elapsed, 1),
        "leaf_buckets": index.tree_size(),
    }
