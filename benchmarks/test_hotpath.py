"""Hot-path gate — the columnar bucket scan must pay end to end.

Fig. 7-style range queries on a bulk-loaded index, once with
``LeafBucket.matching`` (the columnar store) and once forced back to
the naive full scan (``LeafBucket.matching_naive``, the shipped
oracle): identical answers first, then the throughput ratio.  A ratio,
not a rate, so machine speed cancels; the per-kernel timings
(``core.store.matching_us``, ``common.labels.interleave_us``, …) and
every absolute rate are ``perf/``'s, and the kernels' equivalence with
their references is ``tests/test_hotpath_equivalence.py``'s.
"""

from __future__ import annotations

import pytest

from repro.core.bucket import LeafBucket
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.dht.localhash import LocalDht
from repro.workloads.queries import uniform_range_queries

from .conftest import best_rate

#: Columnar over naive-scan query throughput must stay above this:
#: 70 % of the 1.67x measured when the columnar store landed.
SPEEDUP_GATE = 0.7 * 1.67

_QUERY_SPAN = 0.2
_N_QUERIES = 16


@pytest.mark.smoke
def test_fig7_query_throughput(dataset, paper_config):
    dht = LocalDht(64)
    bulk_load(dht, dataset, paper_config)
    index = MLightIndex(dht, paper_config)
    queries = uniform_range_queries(_N_QUERIES, _QUERY_SPAN, seed=20090622)

    def run_queries():
        return [sorted(index.range_query(q).records, key=lambda r: r.key)
                for q in queries]

    fast_answers = run_queries()
    original = LeafBucket.matching
    LeafBucket.matching = LeafBucket.matching_naive
    try:
        assert run_queries() == fast_answers
        before = best_rate(run_queries, len(queries))
    finally:
        LeafBucket.matching = original
    after = best_rate(run_queries, len(queries))

    assert after / before >= SPEEDUP_GATE, (
        f"end-to-end query speedup regressed: columnar {after:.0f} q/s "
        f"is {after / before:.2f}x the naive scan's {before:.0f} q/s "
        f"(gate {SPEEDUP_GATE:.2f}x)"
    )
