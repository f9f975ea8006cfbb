"""The tracing-disabled overhead gate.

The observability plane's contract is that *disabled* tracing costs
nothing on the hot path: components hold ``tracer = None`` and every
guard is one attribute load plus an ``is None`` test — no no-op
objects, no dead span allocation.  This module enforces the contract
two ways:

* **structurally** — with ``tracing=False`` no layer of the stack
  (index, engines, planes, substrate facade, simulated network) holds
  a tracer, and no spans exist anywhere after a full fig7-style
  workload;
* **by timing** — fig7 range-query throughput with tracing disabled
  must stay within ``OVERHEAD_TOLERANCE`` (2%) of the *enabled*
  configuration, measured interleaved on the same machine.  Disabled
  ought to be strictly faster; a change that moves work onto the
  disabled path (say, replacing the None-guard with an always-on no-op
  tracer) collapses the gap and trips the gate.  What the *enabled*
  path costs is ``perf/``'s ``harness.trace_overhead``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.dht.localhash import LocalDht
from repro.experiments.catalogue import PAPER_CONFIG
from repro.workloads.queries import uniform_range_queries

from .conftest import best_rate

#: Disabled-path throughput may trail enabled-path throughput by at
#: most this fraction (pure run-to-run noise allowance — disabled
#: should win, not merely tie).
OVERHEAD_TOLERANCE = 0.02

_N_POINTS = 4000
_N_QUERIES = 16
_QUERY_SPAN = 0.2


def _build_index(tracing: bool) -> MLightIndex:
    config = replace(PAPER_CONFIG, cache_capacity=0, tracing=tracing)
    points = [
        (((i * 2654435761) % 9973) / 9973.0, ((i * 40503) % 9967) / 9967.0)
        for i in range(_N_POINTS)
    ]
    dht = LocalDht(64)
    bulk_load(dht, points, config)
    return MLightIndex(dht, config)


@pytest.mark.smoke
def test_tracing_disabled_is_structurally_zero_cost():
    index = _build_index(tracing=False)
    queries = uniform_range_queries(_N_QUERIES, _QUERY_SPAN, seed=20090622)
    for query in queries:
        index.range_query(query)
    index.knn((0.5, 0.5), 3)
    assert index.tracer is None
    layer = index.dht
    while layer is not None:
        assert layer.tracer is None
        network = getattr(layer, "network", None)
        if network is not None:
            assert network.tracer is None
        layer = getattr(layer, "inner", None)


@pytest.mark.smoke
def test_trace_overhead_gate():
    """Disabled tracing within OVERHEAD_TOLERANCE of enabled, fig7 load."""
    index_off = _build_index(tracing=False)
    index_on = _build_index(tracing=True)
    queries = uniform_range_queries(_N_QUERIES, _QUERY_SPAN, seed=20090622)

    def run_off():
        for query in queries:
            index_off.range_query(query)

    def run_on():
        index_on.tracer.clear()  # keep the span list from growing
        for query in queries:
            index_on.range_query(query)

    expected = [index_off.range_query(q).records for q in queries]
    assert [index_on.range_query(q).records for q in queries] == expected

    # Interleave the measurements so thermal/allocator drift hits both.
    off = on = 0.0
    for _ in range(2):
        off = max(off, best_rate(run_off, _N_QUERIES))
        on = max(on, best_rate(run_on, _N_QUERIES))

    index_on.tracer.clear()
    run_on()
    assert len(index_on.tracer.spans) > 0  # enabled path really traces

    assert off >= on * (1.0 - OVERHEAD_TOLERANCE), (
        f"tracing-disabled throughput {off:.0f} q/s fell more than "
        f"{OVERHEAD_TOLERANCE:.0%} below tracing-enabled {on:.0f} q/s — "
        "the disabled path is no longer zero-cost"
    )
