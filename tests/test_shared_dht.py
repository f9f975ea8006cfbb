"""All three indexes coexisting on one shared DHT.

The paper motivates over-DHT indexing with shared public substrates
(OpenDHT): multiple applications — here, all three index structures —
store into the *same* DHT.  Key namespaces (``ml:``, ``pht:``,
``dst:``, ``naive:``) must keep them fully isolated.
"""

import random

import pytest

from repro.common.config import IndexConfig
from repro.common.geometry import Region
from repro.baselines.dst import DstIndex
from repro.baselines.pht import PhtIndex
from repro.core.index import MLightIndex
from repro.core.records import Record
from repro.dht.api import PUT_MANY
from repro.dht.localhash import LocalDht
from tests.conftest import brute_force_range


@pytest.fixture()
def shared_world():
    config = IndexConfig(
        dims=2, max_depth=14, split_threshold=10, merge_threshold=5
    )
    dht = LocalDht(16)
    indexes = {
        "mlight": MLightIndex(dht, config),
        "pht": PhtIndex(dht, config),
        "dst": DstIndex(dht, config),
    }
    rng = random.Random(7)
    # Different datasets per index — cross-talk would corrupt answers.
    datasets = {
        name: [(rng.random(), rng.random()) for _ in range(150)]
        for name in indexes
    }
    for name, index in indexes.items():
        for point in datasets[name]:
            index.insert(point, value=name)
    return dht, indexes, datasets


class TestSharedSubstrate:
    def test_disjoint_key_namespaces(self, shared_world):
        dht, _, _ = shared_world
        prefixes = {key.split(":", 1)[0] for key, _ in dht.items()}
        assert prefixes == {"ml", "pht", "dst"}

    def test_each_index_answers_only_its_own_data(self, shared_world):
        _, indexes, datasets = shared_world
        query = Region((0.1, 0.1), (0.8, 0.8))
        for name, index in indexes.items():
            result = index.range_query(query)
            assert sorted(r.key for r in result.records) == (
                brute_force_range(datasets[name], query)
            )
            assert all(r.value == name for r in result.records)

    def test_deleting_from_one_leaves_others_intact(self, shared_world):
        _, indexes, datasets = shared_world
        for point in datasets["mlight"][:100]:
            assert indexes["mlight"].delete(point)
        assert indexes["pht"].total_records() == 150
        assert indexes["dst"].total_records() == 150
        assert indexes["mlight"].total_records() == 50
        indexes["mlight"].check_invariants()


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 3"
)
def test_two_writers_splitting_one_leaf_lose_no_record():
    """The lost split, interleaved by hand at A's IO points — no
    threads: an operation is a generator, ``Dht.perform`` runs a step."""
    config = IndexConfig(dims=2, split_threshold=4, merge_threshold=2)
    dht = LocalDht(8)
    a, b = MLightIndex(dht, config), MLightIndex(dht, config)
    points = [(0.1 * n, 0.1 * n) for n in range(1, 7)]
    for point in points[:4]:
        a.insert(point)
    insert = a._insert(Record.make(points[4], dims=2))
    step = next(insert)
    while step[0] is not PUT_MANY:  # A has read the leaf and planned ...
        step = insert.send(dht.perform(step))
    b.insert(points[5])  # ... B inserts into that leaf (and splits it) ...
    with pytest.raises(StopIteration):  # ... A writes its plan.
        while True:
            step = insert.send(dht.perform(step))
    assert a.total_records() == 6
