"""Extension experiments and features: E9/E10/E11 tables, k-NN and
aggregation answers."""

import pytest

from repro.common.geometry import Region
from repro.core.aggregate import count_in
from repro.experiments.catalogue import REDUCED_CONFIG
from repro.experiments.harness import load_index
from repro.workloads.queries import point_queries

from .conftest import publish


@pytest.fixture(scope="module")
def scaling_samples(dataset):
    samples = publish("e9", dataset)
    probes = [s.mean_lookup_probes for s in samples]
    assert max(probes) - min(probes) < 2.0  # lookup is O(log D), not O(m)
    lookups = [s.mean_query_lookups for s in samples]
    assert lookups[0] < lookups[-1]  # boundary growth with m
    return samples


@pytest.fixture(scope="module")
def churn_samples(dataset):
    samples = publish("e10", dataset)
    by_factor = {s.replication: s for s in samples}
    assert by_factor[3].recall >= by_factor[1].recall
    assert by_factor[3].recall == 1.0
    return samples


def test_e9_dimensionality_table(scaling_samples, paper_config):
    """A 3-D lookup on a built index (the E9 workload's probe)."""
    from dataclasses import replace

    from repro.datasets.synthetic import uniform_points

    points = uniform_points(3000, dims=3, seed=1)
    index = load_index("mlight", replace(paper_config, dims=3), points)
    for key in point_queries(points, 64, seed=2):
        assert index.lookup(key).bucket.covers(key)


def test_e10_churn_table(churn_samples, dataset):
    """Replica repair on an intact replicated ring has nothing to do
    and loses nothing (the E10 hot path)."""
    index = load_index(
        "mlight", REDUCED_CONFIG, dataset[:800],
        overlay="chord", n_peers=16, replication=3,
    )
    index.dht.repair_replicas()
    assert index.total_records() == 800


@pytest.fixture(scope="module")
def mixed_samples(dataset):
    samples = publish("e11", dataset)
    by_name = {s.scheme: s for s in samples}
    assert by_name["mlight"].lookups < by_name["pht"].lookups
    assert (
        by_name["mlight"].records_moved < by_name["pht"].records_moved
    )
    return samples


def test_e11_mixed_workload_delete(mixed_samples, dataset, paper_config):
    """A delete (lookup + possible merge cascade) and re-insert on
    m-LIGHT leave the tree sound."""
    live = dataset[:5000]
    index = load_index("mlight", paper_config, live)
    index.delete(live[0])
    index.insert(live[0])
    assert index.total_records() == len(live)
    index.check_invariants()


def test_knn_query(dataset, paper_config):
    """An exact 10-NN on the NE surrogate."""
    index = load_index("mlight", paper_config, dataset[:8000])
    (pin,) = point_queries(dataset[:8000], 1, seed=3)
    assert len(index.knn(pin, 10).neighbors) == 10


def test_aggregate_query(dataset, paper_config):
    """A COUNT over a mid-size region counts what a scan does."""
    index = load_index("mlight", paper_config, dataset[:8000])
    query = Region((0.36, 0.30), (0.66, 0.60))
    assert count_in(index, query).aggregate.count == sum(
        query.contains_point(point) for point in dataset[:8000]
    )
