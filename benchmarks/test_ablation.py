"""Ablation benchmarks A1-A3 (design choices called out in DESIGN.md).

A1: the naming function — versus the identity label-to-key mapping.
A2: binary-search lookup — versus linear probing.
A3: DHT substrate swap — index costs must be substrate-invariant.
"""

import pytest

from repro.experiments import ablation
from repro.experiments.harness import build_index
from repro.workloads.queries import point_queries

from .conftest import publish


@pytest.fixture(scope="module")
def ablation_dataset(dataset):
    return dataset[: min(len(dataset), 8000)]


@pytest.fixture(scope="module")
def naming_rows(ablation_dataset, paper_config):
    rows = ablation.run_naming_ablation(ablation_dataset, paper_config)
    publish("ablation_a1_naming.txt",
            ablation.render(rows, "A1: naming function vs naive mapping"))
    by_name = {row.name: row for row in rows}
    assert by_name["mlight"].lookups < by_name["naive-mapping"].lookups
    assert (
        by_name["mlight"].records_moved
        < by_name["naive-mapping"].records_moved
    )
    return rows


@pytest.fixture(scope="module")
def lookup_rows(ablation_dataset, paper_config):
    keys = point_queries(ablation_dataset, 300, seed=1)
    rows = ablation.run_lookup_ablation(
        ablation_dataset, keys, paper_config
    )
    publish("ablation_a2_lookup.txt",
            ablation.render(rows, "A2: binary search vs linear probing"))
    by_name = {row.name: row for row in rows}
    assert (
        by_name["binary-search"].lookups < by_name["linear-probing"].lookups
    )
    return rows


@pytest.fixture(scope="module")
def substrate_rows(ablation_dataset, paper_config):
    rows = ablation.run_substrate_ablation(
        ablation_dataset[:1500], paper_config, n_peers=16
    )
    publish("ablation_a3_substrates.txt",
            ablation.render(rows, "A3: DHT substrate swap"))
    return rows


@pytest.fixture(scope="module")
def bulkload_rows(ablation_dataset, paper_config):
    rows = ablation.run_bulkload_ablation(
        ablation_dataset[:4000], paper_config
    )
    publish("ablation_a4_bulkload.txt",
            ablation.render(rows, "A4: bulk load vs incremental build"))
    by_name = {row.name: row for row in rows}
    assert by_name["bulk-load"].lookups < by_name["incremental"].lookups
    assert (
        by_name["bulk-load"].records_moved
        <= by_name["incremental"].records_moved
    )
    return rows


def test_a4_bulk_load(ablation_dataset, paper_config, bulkload_rows):
    """A data-aware bulk load of 4000 records places every record."""
    from repro.core.bulkload import bulk_load
    from repro.core.split import DataAwareSplit
    from repro.dht.localhash import LocalDht

    subset = ablation_dataset[:4000]
    strategy = DataAwareSplit(paper_config.expected_load)
    placed = bulk_load(LocalDht(32), subset, paper_config, strategy)
    assert sum(load for _, load in placed) == len(subset)


def test_a1_naming_split_cost(ablation_dataset, paper_config, naming_rows):
    """Naive-mapping inserts (full-transfer splits, linear lookups)."""
    index = build_index("naive", paper_config)
    warmup = ablation_dataset[:2000]
    for point in warmup:
        index.insert(point)
    assert index.total_records() == len(warmup)


def test_a2_lookup_binary_vs_linear(ablation_dataset, paper_config,
                                    lookup_rows):
    """The production binary-search lookup finds a covering leaf."""
    index = build_index("mlight", paper_config)
    for point in ablation_dataset[:4000]:
        index.insert(point)
    key = ablation_dataset[0]
    assert index.lookup(key).bucket.covers(key)


def test_a3_substrate_chord_routing(paper_config, substrate_rows, dataset):
    """Inserts routed through the full Chord overlay."""
    from repro.dht.chord import ChordDht
    from repro.core.index import MLightIndex

    index = MLightIndex(ChordDht.build(16), paper_config)
    for point in dataset[:500]:
        index.insert(point)
    index.check_invariants()
