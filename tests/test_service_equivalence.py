"""Sim-vs-service runtime equivalence.

The over-DHT contract says the substrate is invisible above the
:class:`~repro.dht.api.Dht` facade: the same workload must produce the
same query answers and the same index-level cost meters whether the
peers are simulated in one thread or served on an asyncio loop behind
the framed wire protocol.  ``hops`` is the one excluded counter — it
meters overlay routing, which only the routed simulated protocols
perform (it is 0 on LocalDht too); wall-clock measures live on
``NetworkStats``, outside ``DhtStats`` entirely.
"""

from __future__ import annotations

import pytest

from repro.common.config import IndexConfig
from repro.core.index import MLightIndex
from repro.datasets.synthetic import uniform_points
from repro.runtime import RuntimeConfig, create_dht
from repro.workloads.traces import request_trace, run_operation
from tests.conftest import PerKeyDht

CONFIG = IndexConfig(dims=2, split_threshold=20, merge_threshold=10)
POINTS = uniform_points(600, seed=3)
TRACE = request_trace(
    POINTS, 150, insert_fraction=0.2, lookup_fraction=0.5,
    range_fraction=0.3, span=0.002, seed=7,
)


def run_workload(runtime: RuntimeConfig, config: IndexConfig = CONFIG):
    """Load the index, replay the trace, return (answers, stats)."""
    dht = create_dht(runtime)
    try:
        index = MLightIndex(dht, config)
        index.insert_many(POINTS)
        answers = []
        for operation in TRACE:
            result = run_operation(index, operation)
            if operation.kind == "lookup":
                answers.append(
                    ("lookup", sorted(r.key for r in result.bucket.records))
                )
            elif operation.kind == "range":
                answers.append(
                    ("range", sorted(r.key for r in result.records))
                )
        return answers, dht.stats.snapshot()
    finally:
        close = getattr(dht, "close", None)
        if close is not None:
            close()


def comparable(snapshot: dict) -> dict:
    """DhtStats keyset minus the overlay-routing counter."""
    return {key: value for key, value in snapshot.items() if key != "hops"}


@pytest.fixture(scope="module")
def asyncio_run():
    """One asyncio-runtime replay shared by the per-overlay tests."""
    return run_workload(RuntimeConfig(kind="asyncio", n_peers=8))


class TestSimVsAsyncio:
    @pytest.mark.parametrize("overlay", ["chord", "kademlia", "pastry"])
    def test_all_overlays_match_the_service_runtime(
        self, overlay, asyncio_run
    ):
        sim_answers, sim_stats = run_workload(
            RuntimeConfig(kind="sim", overlay=overlay, n_peers=8)
        )
        svc_answers, svc_stats = asyncio_run
        assert sim_answers == svc_answers
        assert comparable(sim_stats) == comparable(svc_stats)

    def test_local_oracle_matches_the_service_runtime(self, asyncio_run):
        sim_answers, sim_stats = run_workload(
            RuntimeConfig(kind="sim", overlay="local", n_peers=8)
        )
        svc_answers, svc_stats = asyncio_run
        assert sim_answers == svc_answers
        assert comparable(sim_stats) == comparable(svc_stats)
        # The local oracle performs no overlay routing either, so here
        # even the full keyset (hops included) must agree.
        assert sim_stats == svc_stats

    def test_lookup_and_record_counts_are_nonzero(self, asyncio_run):
        """Guard against vacuous equality: the trace must actually
        exercise the meters being compared."""
        _, stats = asyncio_run
        assert stats["lookups"] > 0
        assert stats["gets"] > 0
        assert stats["puts"] > 0
        assert stats["records_moved"] > 0
        assert stats["batch_rounds"] > 0


#: The benchmark's two service shapes: ``svc_scan`` (numpy store, a
#: leaf cache smaller than the leaf count) and ``svc_journal`` (every
#: peer store journaled to an append log).
SHAPES = {
    "numpy store, small cache": (
        {}, IndexConfig(
            dims=2, split_threshold=20, merge_threshold=10, store="numpy",
            cache_capacity=8,
        ),
    ),
    "append log": (
        {"durability": "log"}, IndexConfig(
            dims=2, split_threshold=20, merge_threshold=10, durability="log",
        ),
    ),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_the_benchmark_shapes_match_between_sim_and_service(shape):
    """The same replay on ``LocalDht`` and on the asyncio service
    runtime in each benchmark shape: the same answers and the full
    ``DhtStats`` keyset."""
    extra, config = SHAPES[shape]
    sim = run_workload(
        RuntimeConfig(kind="sim", overlay="local", n_peers=8, **extra), config
    )
    service = run_workload(
        RuntimeConfig(kind="asyncio", n_peers=8, **extra), config
    )
    assert sim == service
    stats = service[1]
    if config.cache_capacity:
        # A leaf holds at most split_threshold records: more leaves
        # than the cache holds, so it evicts and misses.
        assert len(POINTS) / config.split_threshold > config.cache_capacity
        assert stats["cache_hits"] > 0 and stats["cache_misses"] > 0
    assert stats["lookups"] > 0 and stats["puts"] > 0


class TestTcpTransport:
    def test_tcp_matches_asyncio_bit_for_bit(self, asyncio_run):
        """The socket transport carries the same frames as the
        in-process transport — answers and the full meter keyset
        agree."""
        tcp_answers, tcp_stats = run_workload(
            RuntimeConfig(kind="tcp", n_peers=4)
        )
        svc_answers, svc_stats = asyncio_run
        assert tcp_answers == svc_answers
        assert tcp_stats == svc_stats


class TestExecutionPlanes:
    @pytest.mark.parametrize("execution", ["batched", "sequential"])
    def test_both_planes_run_on_the_service_runtime(self, execution):
        """The program's path (rounds as batches, driven on the service
        loop) and the per-key reference behind ``PerKeyDht``
        (``sequential``) over the same runtime."""
        with create_dht(kind="asyncio", n_peers=4) as dht:
            client = dht if execution == "batched" else PerKeyDht(dht)
            index = MLightIndex(client, CONFIG)
            index.insert_many(POINTS[:200])
            result = index.range_query(((0.1, 0.1), (0.6, 0.6)))
        expected = sorted(
            p for p in POINTS[:200]
            if 0.1 <= p[0] <= 0.6 and 0.1 <= p[1] <= 0.6
        )
        assert sorted(r.key for r in result.records) == expected
        assert (result.batch_rounds == 0) == (execution == "sequential")

    @pytest.mark.parametrize("lookahead", [1, 2, 4])
    def test_service_runtime_matches_the_per_key_reference(self, lookahead):
        """Same trace on two asyncio runtimes, one behind the per-key
        reference: answers and every meter but the batch counters agree
        through splits, range queries and merges."""
        runs = []
        for wrap in (lambda dht: dht, PerKeyDht):
            with create_dht(kind="asyncio", n_peers=4) as dht:
                index = MLightIndex(wrap(dht), CONFIG)
                index.insert_many(POINTS[:300])
                results = [
                    index.range_query(
                        ((low, low), (low + 0.3, low + 0.3)), lookahead
                    )
                    for low in (0.0, 0.2, 0.4, 0.6)
                ]
                for point in POINTS[:200]:
                    index.delete(point)
                runs.append((
                    [
                        (sorted(r.key for r in result.records),
                         result.lookups, result.rounds,
                         result.visited_leaves)
                        for result in results
                    ],
                    {
                        key: value
                        for key, value in dht.stats.snapshot().items()
                        if key not in ("batch_rounds", "batch_ops")
                    },
                    dht.stats.batch_rounds,
                ))
        (answers, stats, rounds), (ref_answers, ref_stats, ref_rounds) = runs
        assert answers == ref_answers
        assert stats == ref_stats
        assert rounds > 0 and ref_rounds == 0
