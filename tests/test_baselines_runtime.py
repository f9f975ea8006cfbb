"""PHT and DST on the service runtime.

The baselines consume only the :class:`~repro.dht.api.Dht` facade, so
on ``asyncio`` a seeded mix of inserts (PHT splits), deletes (PHT
merges) and range queries must answer and meter exactly as on ``sim``.
A trie node keeps its records in the bucket of its cell, so it travels
with its records as that bucket's codec bytes — no
:class:`~repro.core.records.Record` is pickled — and it is priced at
exactly those bytes.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.dst import DstIndex
from repro.baselines.pht import PhtIndex
from repro.common.config import IndexConfig
from repro.common.geometry import Region
from repro.core.codec import encode_bucket
from repro.core.records import Record
from repro.datasets.synthetic import uniform_points
from repro.runtime import RuntimeConfig, create_dht

SCHEMES = {"pht": PhtIndex, "dst": DstIndex}
KINDS = ["columnar", "numpy"]
POINTS = uniform_points(100, seed=5)


def config(store: str) -> IndexConfig:
    return IndexConfig(
        dims=2, max_depth=12, split_threshold=8, merge_threshold=6,
        store=store,
    )


def leaf_chain(index: PhtIndex) -> list[str]:
    """The leaf prefixes in linked-list order, from the one head."""
    leaves = {leaf.prefix: leaf for leaf in index.leaves()}
    heads = [prefix for prefix, leaf in leaves.items() if not leaf.prev_leaf]
    assert len(heads) == 1
    chain = [heads[0]]
    while leaves[chain[-1]].next_leaf is not None:
        chain.append(leaves[chain[-1]].next_leaf)
    assert len(chain) == len(leaves)
    return chain


def scenario(scheme: str, kind: str, store: str = "columnar") -> dict:
    """Load, then a seeded mix of inserts, deletes and range queries;
    everything an index answers or meters, and its stored nodes."""
    dht = create_dht(RuntimeConfig(kind=kind, n_peers=8))
    try:
        index = SCHEMES[scheme](dht, config(store))
        rng = random.Random(17)
        present = list(POINTS)
        for point in present:
            index.insert(point)
        answers = []
        for _ in range(120):
            roll = rng.random()
            if roll < 0.2:
                point = (rng.random(), rng.random())
                index.insert(point)
                present.append(point)
            elif roll < 0.7 and present:
                point = present.pop(rng.randrange(len(present)))
                answers.append(index.delete(point))
            else:
                low = (rng.random() * 0.8, rng.random() * 0.8)
                query = Region(
                    low, (low[0] + rng.random() * 0.2, low[1] + rng.random() * 0.2)
                )
                result = index.range_query(query)
                answers.append(
                    (sorted(r.key for r in result.records),
                     result.lookups, result.rounds)
                )
        stats = dht.stats.snapshot()
        shape = (
            (index.tree_size(), leaf_chain(index)) if scheme == "pht"
            else (index.replica_count(), index.total_records())
        )
        nodes = [value for key, value in dht.items() if key.startswith(scheme)]
        return {
            "answers": answers, "stats": stats, "shape": shape,
            "nodes": nodes, "present": sorted(present),
        }
    finally:
        close = getattr(dht, "close", None)
        if close is not None:
            close()


@pytest.mark.parametrize("store", KINDS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_sim_and_asyncio_agree(scheme, store):
    sim = scenario(scheme, "sim", store)
    svc = scenario(scheme, "asyncio", store)
    assert sim["answers"] == svc["answers"]
    assert sim["stats"] == svc["stats"]
    assert sim["shape"] == svc["shape"]
    if scheme == "pht":
        assert sim["stats"]["removes"] > 0  # merges happened
        chain = sim["shape"][1]
        assert len(chain) > 1 and chain == sorted(chain)  # z-order
    # The leaves (PHT) or depth-D cells (DST) hold exactly what is left.
    depth = config(store).max_depth
    stored = sorted(
        record.key
        for node in sim["nodes"]
        if (node.is_leaf if scheme == "pht" else len(node.prefix) == depth)
        for record in node.bucket.records
    )
    assert stored == sim["present"]


@pytest.mark.parametrize("kind", ["sim", "asyncio"])
def test_a_node_is_priced_at_its_bucket_bytes(kind):
    for scheme in SCHEMES:
        nodes = scenario(scheme, kind)["nodes"]
        for node in nodes:
            assert node.encoded_wire_size() == len(encode_bucket(node.bucket))
        if scheme == "pht":
            assert {node.is_leaf for node in nodes} == {True, False}


@pytest.fixture
def pickled_records(monkeypatch) -> list:
    """Every :class:`Record` pickled while the test runs, on any
    thread."""
    pickled: list = []

    def tripwire(record, protocol):
        pickled.append(record)
        return object.__reduce_ex__(record, protocol)

    monkeypatch.setattr(Record, "__reduce_ex__", tripwire)
    return pickled


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_asyncio_pickles_no_record(scheme, pickled_records):
    scenario(scheme, "asyncio")
    assert pickled_records == []
