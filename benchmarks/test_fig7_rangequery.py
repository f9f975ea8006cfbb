"""Figs. 7a-7b — range-query bandwidth and latency.

Regenerates the five-variant comparison across range spans (tables
under ``results/``) and asserts the paper's orderings against
``check_fig7``, then answers one representative query per variant on
prebuilt indexes.  A third table (fig7c) replays the lookahead sweep
on a Chord ring over the simulated network, where latency is
*measured* as simulated clock time — each batched round costs its
critical path, not the sum of its probes — so the rounds proxy of
Fig. 7b is checked against an actual clock.
"""

import pytest

from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.dht.chord import ChordDht
from repro.experiments.harness import load_index
from repro.experiments.report import check_fig7
from repro.workloads.queries import uniform_range_queries

from .conftest import assert_claims, publish, publish_text

#: Span of the per-variant query.
_BENCH_SPAN = 0.2

#: Span for the simulated-clock sweep: wide enough that the basic
#: variant needs several waves, so lookahead has latency to reclaim.
_CLOCK_SPAN = 0.5


@pytest.fixture(scope="module")
def rangequery_series(dataset):
    series = publish("fig7ab", dataset)
    assert_claims(check_fig7(series))
    return series


@pytest.fixture(scope="module")
def chord_index(dataset, paper_config):
    """An m-LIGHT index bulk-loaded onto a Chord ring over SimNetwork."""
    dht = ChordDht.build(32)
    bulk_load(dht, dataset[:4000], paper_config)
    return MLightIndex(dht, paper_config), dht.network


@pytest.mark.smoke
def test_fig7c_critical_path_latency(chord_index, dataset):
    """Fig. 7b's premise on a real clock: with each batched round
    charged its critical path, lookahead=4 answers the same queries in
    less simulated time than the basic variant while spending more
    lookups (the paper's bandwidth-for-latency trade)."""
    index, network = chord_index
    queries = uniform_range_queries(8, _CLOCK_SPAN, seed=20090622)
    elapsed, rounds, lookups = {}, {}, {}
    for lookahead in (1, 2, 4):
        start = network.clock.now
        rounds[lookahead] = lookups[lookahead] = 0
        for query in queries:
            result = index.range_query(query, lookahead=lookahead)
            rounds[lookahead] += result.rounds
            lookups[lookahead] += result.lookups
        elapsed[lookahead] = network.clock.now - start

    lines = [
        f"{len(queries)} queries of span {_CLOCK_SPAN} on a 32-peer "
        "Chord ring (simulated clock, per-round critical path)",
        f"{'lookahead':>9}  {'rounds':>6}  {'lookups':>7}  "
        f"{'sim latency':>11}",
    ]
    for lookahead in (1, 2, 4):
        lines.append(
            f"{lookahead:>9}  {rounds[lookahead]:>6}  "
            f"{lookups[lookahead]:>7}  {elapsed[lookahead]:>11.1f}"
        )
    publish_text("fig7c_critical_latency.txt", "\n".join(lines), dataset)

    assert elapsed[4] < elapsed[1]
    assert rounds[4] < rounds[1]
    assert lookups[4] >= lookups[1]


@pytest.fixture(scope="module")
def built_indexes(dataset, paper_config):
    return {
        scheme: load_index(scheme, paper_config, dataset)
        for scheme in ("mlight", "pht", "dst")
    }


@pytest.mark.parametrize(
    "variant, scheme, lookahead",
    [
        ("mlight-basic", "mlight", 1),
        ("mlight-parallel-2", "mlight", 2),
        ("mlight-parallel-4", "mlight", 4),
        ("pht", "pht", None),
        ("dst", "dst", None),
    ],
)
def test_fig7_query_answer(built_indexes, rangequery_series, dataset,
                           variant, scheme, lookahead):
    """One mid-size range query per variant returns what a scan of the
    dataset does."""
    index = built_indexes[scheme]
    (query,) = uniform_range_queries(1, _BENCH_SPAN, seed=20090622)
    if lookahead is None:
        result = index.range_query(query)
    else:
        result = index.range_query(query, lookahead=lookahead)
    assert sorted(record.key for record in result.records) == sorted(
        point for point in dataset if query.contains_point(point)
    )
