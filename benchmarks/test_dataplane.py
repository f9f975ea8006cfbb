"""Data-plane gates — the record-store backends head to head.

Runs the same workload through every shipped bucket backend
(``columnar`` / ``numpy``):

* **bulk_load** — :func:`bulk_load` into a ``LocalDht`` places every
  record; the numpy backend is fed the coordinate *matrix*, so the
  batch Morton/partition path (no per-record ``Record`` objects) is
  the one exercised;
* **fig7_query_throughput** — end-to-end range queries against the
  bulk-loaded index: every backend returns identical answers, and the
  numpy backend's throughput must reach ``NUMPY_GATE`` (1.5x) of the
  columnar backend's at benchmark scale — vectorized mask-reduction
  has to actually pay for itself, not just pass equivalence.
"""

from __future__ import annotations

import pytest

from repro.common.config import IndexConfig
from repro.core import npstore
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.dht.localhash import LocalDht
from repro.workloads.queries import uniform_range_queries

from .conftest import bench_size, best_rate

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


@pytest.mark.smoke
@pytest.mark.parametrize("store", BACKENDS)
def test_bulk_load_places_every_record(dataset, store):
    placed = bulk_load(
        LocalDht(64), bulk_items(store, dataset), dataplane_config(store)
    )
    assert sum(load for _, load in placed) == len(dataset)


@pytest.mark.smoke
def test_fig7_query_throughput(dataset):
    """Range-query throughput per backend, identical answers enforced.

    The gate lives here: numpy must clear ``NUMPY_GATE`` x columnar at
    benchmark scale, or the vectorized path has stopped earning its
    keep.
    """
    queries = uniform_range_queries(_N_QUERIES, _QUERY_SPAN, seed=20090622)
    gated = npstore.HAVE_NUMPY and bench_size() >= GATE_MIN_SIZE
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

        if gated:
            rates[store] = best_rate(run_queries, len(queries))

    assert answers["numpy"] == answers["columnar"], (
        "numpy answers differ from columnar's"
    )
    if gated:
        ratio = rates["numpy"] / rates["columnar"]
        assert ratio >= NUMPY_GATE, (
            f"numpy fig7 throughput {rates['numpy']:.0f} q/s is only "
            f"{ratio:.2f}x columnar's {rates['columnar']:.0f} q/s "
            f"(gate {NUMPY_GATE}x at size {bench_size()})"
        )
