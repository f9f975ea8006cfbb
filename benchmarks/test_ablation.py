"""Ablation benchmarks A1-A5 (design choices called out in DESIGN.md).

A1: the naming function — versus the identity label-to-key mapping.
A2: binary-search lookup — versus linear probing.
A3: swapping the DHT substrate — index costs must be substrate-invariant.
A4: bulk loading — versus incremental data-aware insertion.
A5: the client leaf cache — cold and warm, versus none.
"""

import pytest

from repro.experiments.harness import load_index

from .conftest import publish


@pytest.fixture(scope="module")
def naming_rows(dataset):
    rows = publish("a1", dataset)
    by_name = {row.name: row for row in rows}
    assert by_name["mlight"].lookups < by_name["naive-mapping"].lookups
    assert (
        by_name["mlight"].records_moved
        < by_name["naive-mapping"].records_moved
    )
    return rows


@pytest.fixture(scope="module")
def lookup_rows(dataset):
    rows = publish("a2", dataset)
    by_name = {row.name: row for row in rows}
    assert (
        by_name["binary-search"].lookups < by_name["linear-probing"].lookups
    )
    return rows


@pytest.fixture(scope="module")
def substrate_rows(dataset):
    # run_substrate_ablation raises if index-level costs differ.
    return publish("a3", dataset)


@pytest.fixture(scope="module")
def bulkload_rows(dataset):
    rows = publish("a4", dataset)
    by_name = {row.name: row for row in rows}
    assert by_name["bulk-load"].lookups < by_name["incremental"].lookups
    assert (
        by_name["bulk-load"].records_moved
        <= by_name["incremental"].records_moved
    )
    return rows


def test_a4_bulk_load(dataset, paper_config, bulkload_rows):
    """A data-aware bulk load of 4000 records places every record."""
    from repro.core.bulkload import bulk_load
    from repro.core.split import DataAwareSplit
    from repro.runtime import create_dht

    subset = dataset[:4000]
    strategy = DataAwareSplit(paper_config.expected_load)
    placed = bulk_load(create_dht(n_peers=32), subset, paper_config, strategy)
    assert sum(load for _, load in placed) == len(subset)


def test_a1_naming_split_cost(dataset, paper_config, naming_rows):
    """Naive-mapping inserts (full-transfer splits, linear lookups)."""
    warmup = dataset[:2000]
    index = load_index("naive", paper_config, warmup)
    assert index.total_records() == len(warmup)


def test_a2_lookup_binary_vs_linear(dataset, paper_config, lookup_rows):
    """The production binary-search lookup finds a covering leaf."""
    index = load_index("mlight", paper_config, dataset[:4000])
    key = dataset[0]
    assert index.lookup(key).bucket.covers(key)


def test_a3_substrate_chord_routing(paper_config, substrate_rows, dataset):
    """Inserts routed through the full Chord overlay."""
    index = load_index(
        "mlight", paper_config, dataset[:500], overlay="chord", n_peers=16
    )
    index.check_invariants()


def test_a5_cache_pays_for_itself(dataset):
    """Even a cold cache saves lookups on a replay; a warm one answers
    every lookup with its one hinted get."""
    rows = publish("a5", dataset)
    by_name = {row.name: row for row in rows}
    assert (
        by_name["warm-cache"].lookups
        <= by_name["cold-cache"].lookups
        < by_name["no-cache"].lookups
    )
