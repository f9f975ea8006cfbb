"""Tests for peer-side distributed query execution.

The headline property: the peer runtime (``MulticastRuntime``, every
forward routed from the forwarding peer) and the client-orchestrated
engine return identical answers at identical metered costs — the
paper's cost model cannot tell the deployments apart.
"""

import random

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import ReproError
from repro.common.geometry import Region
from repro.core.index import MLightIndex
from repro.core.keys import bucket_key
from repro.core.naming import naming_function
from repro.dht.chord import ChordDht
from repro.dht.kademlia import KademliaDht
from repro.dht.localhash import LocalDht
from repro.dht.pastry import PastryDht
from repro.mcast import MCAST_SUFFIX, MulticastRuntime
from tests.conftest import brute_force_range


def build_over(dht, n_points=250, seed=0):
    config = IndexConfig(
        dims=2, max_depth=14, split_threshold=10, merge_threshold=5
    )
    index = MLightIndex(dht, config)
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n_points)]
    for point in points:
        index.insert(point)
    return index, points, config


def random_queries(seed, count=8):
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        lows = (rng.random() * 0.7, rng.random() * 0.7)
        highs = (
            lows[0] + rng.random() * 0.3, lows[1] + rng.random() * 0.3
        )
        queries.append(Region(lows, highs))
    return queries


class TestCorrectness:
    @pytest.mark.parametrize("factory", [
        lambda: ChordDht.build(10),
        lambda: KademliaDht.build(10),
        lambda: PastryDht.build(10),
    ], ids=["chord", "kademlia", "pastry"])
    def test_matches_brute_force(self, factory):
        dht = factory()
        index, points, config = build_over(dht)
        runtime = MulticastRuntime(dht, 2, config.max_depth)
        for query in random_queries(1):
            result = runtime.query(query)
            assert sorted(r.key for r in result.records) == (
                brute_force_range(points, query)
            )

    def test_any_peer_can_initiate(self):
        dht = ChordDht.build(8)
        index, points, config = build_over(dht, seed=2)
        runtime = MulticastRuntime(dht, 2, config.max_depth)
        query = Region((0.2, 0.2), (0.7, 0.7))
        expected = brute_force_range(points, query)
        for peer in dht.peers():
            result = runtime.query(query, initiator=peer)
            assert sorted(r.key for r in result.records) == expected

    def test_unknown_initiator_rejected(self):
        dht = ChordDht.build(4)
        _, _, config = build_over(dht, n_points=20)
        runtime = MulticastRuntime(dht, 2, config.max_depth)
        query = Region((0.1, 0.1), (0.2, 0.2))
        with pytest.raises(ReproError):
            runtime.query(query, initiator="nobody")
        dead = dht.peers()[1]
        dht.fail(dead)
        with pytest.raises(ReproError):
            runtime.query(query, initiator=dead)

    def test_localdht_rejected(self):
        with pytest.raises(ReproError):
            MulticastRuntime(LocalDht(8), 2, 14)


class TestDeploymentEquivalence:
    """Peer-side forwarding == client orchestration, cost for cost."""

    @pytest.mark.parametrize("seed", range(3))
    def test_same_answers_same_costs(self, seed):
        dht = ChordDht.build(12)
        index, points, config = build_over(dht, seed=seed)
        runtime = MulticastRuntime(dht, 2, config.max_depth)
        for query in random_queries(seed + 10):
            engine_result = index.range_query(query)
            distributed_result = runtime.query(query)
            assert sorted(
                r.key for r in distributed_result.records
            ) == sorted(r.key for r in engine_result.records)
            assert (
                distributed_result.visited_leaves
                == engine_result.visited_leaves
            )
            assert distributed_result.lookups == engine_result.lookups
            assert distributed_result.rounds == engine_result.rounds

    def test_agents_registered_on_every_peer(self):
        """An agent is registered on the first message to its peer:
        after a whole-space query, on every peer that owns a leaf."""
        dht = ChordDht.build(6)
        build_over(dht, n_points=30)
        result = MulticastRuntime(dht, 2, 14).query(
            Region((0.0, 0.0), (1.0, 1.0))
        )
        for label in result.visited_leaves:
            owner = dht.peer_of(bucket_key(naming_function(label, 2)))
            assert dht.network.is_registered(owner + MCAST_SUFFIX)

    def test_local_bucket_read_is_free(self):
        """The agent reads its own bucket from its store: the only
        metered cost per forward is the routing lookup."""
        dht = ChordDht.build(8)
        index, points, config = build_over(dht, seed=5)
        runtime = MulticastRuntime(dht, 2, config.max_depth)
        query = Region((0.0, 0.0), (1.0, 1.0))
        gets_before = dht.stats.gets
        result = runtime.query(query)
        # Whole-space query: exactly one lookup per leaf bucket, no
        # gets (the engine pays the same lookups via its gets).
        assert result.lookups == len(result.visited_leaves)
        assert dht.stats.gets == gets_before
