"""Extension experiments and features: E9/E10/E11 tables, k-NN and
aggregation answers."""

import pytest

from repro.common.config import IndexConfig
from repro.common.geometry import Region
from repro.core.aggregate import count_in
from repro.experiments import churn_experiment, scaling
from repro.experiments.harness import build_index
from repro.workloads.queries import point_queries

from .conftest import publish


@pytest.fixture(scope="module")
def scaling_samples(paper_config):
    samples = scaling.run_dimensionality_sweep(
        3000, paper_config, dims_list=(1, 2, 3, 4)
    )
    publish("e9_dimensionality.txt", scaling.render(samples))
    probes = [s.mean_lookup_probes for s in samples]
    assert max(probes) - min(probes) < 2.0  # lookup is O(log D), not O(m)
    lookups = [s.mean_query_lookups for s in samples]
    assert lookups[0] < lookups[-1]  # boundary growth with m
    return samples


@pytest.fixture(scope="module")
def churn_samples(dataset, paper_config):
    config = IndexConfig(
        dims=2, max_depth=18, split_threshold=50, merge_threshold=25
    )
    samples = churn_experiment.run_churn_availability(
        dataset[:1500], config, replication_factors=(1, 2, 3),
        n_peers=16, n_crashes=3,
    )
    publish("e10_churn_availability.txt", churn_experiment.render(samples))
    by_factor = {s.replication: s for s in samples}
    assert by_factor[3].recall >= by_factor[1].recall
    assert by_factor[3].recall == 1.0
    return samples


def test_e9_dimensionality_table(scaling_samples, paper_config):
    """A 3-D lookup on a built index (the E9 workload's probe)."""
    from dataclasses import replace

    config = replace(paper_config, dims=3)
    index = build_index("mlight", config)
    from repro.datasets.synthetic import uniform_points

    points = uniform_points(3000, dims=3, seed=1)
    for point in points:
        index.insert(point)
    for key in point_queries(points, 64, seed=2):
        assert index.lookup(key).bucket.covers(key)


def test_e10_churn_table(churn_samples, dataset, paper_config):
    """Replica repair on an intact replicated ring has nothing to do
    and loses nothing (the E10 hot path)."""
    from repro.dht.chord import ChordDht
    from repro.core.index import MLightIndex

    config = IndexConfig(
        dims=2, max_depth=18, split_threshold=50, merge_threshold=25
    )
    dht = ChordDht.build(16, replication=3)
    index = MLightIndex(dht, config)
    for point in dataset[:800]:
        index.insert(point)

    dht.repair_replicas()
    assert index.total_records() == 800


@pytest.fixture(scope="module")
def mixed_samples(dataset, paper_config):
    from repro.experiments import mixed_workload

    samples = mixed_workload.run_mixed_workload(
        dataset[:6000], paper_config, delete_fraction=0.4
    )
    publish("e11_mixed_workload.txt", mixed_workload.render(samples))
    by_name = {s.scheme: s for s in samples}
    assert by_name["mlight"].lookups < by_name["pht"].lookups
    assert (
        by_name["mlight"].records_moved < by_name["pht"].records_moved
    )
    return samples


def test_e11_mixed_workload_delete(mixed_samples, dataset, paper_config):
    """A delete (lookup + possible merge cascade) and re-insert on
    m-LIGHT leave the tree sound."""
    index = build_index("mlight", paper_config)
    live = dataset[:5000]
    for point in live:
        index.insert(point)
    index.delete(live[0])
    index.insert(live[0])
    assert index.total_records() == len(live)
    index.check_invariants()


def test_knn_query(dataset, paper_config):
    """An exact 10-NN on the NE surrogate."""
    index = build_index("mlight", paper_config)
    for point in dataset[:8000]:
        index.insert(point)
    (pin,) = point_queries(dataset[:8000], 1, seed=3)
    assert len(index.knn(pin, 10).neighbors) == 10


def test_aggregate_query(dataset, paper_config):
    """A COUNT over a mid-size region counts what a scan does."""
    index = build_index("mlight", paper_config)
    for point in dataset[:8000]:
        index.insert(point)
    query = Region((0.36, 0.30), (0.66, 0.60))
    assert count_in(index, query).aggregate.count == sum(
        query.contains_point(point) for point in dataset[:8000]
    )
