"""Tests for the Kademlia overlay."""

import pytest

from repro.dht.hashing import key_digest, xor_distance
from repro.dht.kademlia import BUCKET_SIZE, KademliaDht, KademliaNode
from repro.net.simnet import SimNetwork


class TestRoutingTable:
    def test_observe_and_buckets(self):
        net = SimNetwork()
        node = KademliaNode("kad-a", net)
        other = KademliaNode("kad-b", net)
        node.observe(other.ident, other.name)
        contacts = node.closest_contacts(other.ident, 2)
        assert (other.ident, other.name) in contacts

    def test_never_stores_self(self):
        net = SimNetwork()
        node = KademliaNode("kad-a", net)
        node.observe(node.ident, node.name)
        assert all(not bucket for bucket in node.buckets)

    def test_bucket_capacity_keeps_live_oldest(self):
        net = SimNetwork()
        node = KademliaNode("kad-a", net)
        # Fill one conceptual region with many live contacts.
        others = [KademliaNode(f"kad-{i:03d}", net) for i in range(64)]
        for other in others:
            node.observe(other.ident, other.name)
        for bucket in node.buckets:
            assert len(bucket) <= BUCKET_SIZE

    def test_closest_contacts_sorted_by_xor(self):
        net = SimNetwork()
        node = KademliaNode("kad-a", net)
        others = [KademliaNode(f"kad-{i:03d}", net) for i in range(20)]
        for other in others:
            node.observe(other.ident, other.name)
        target = key_digest("target")
        contacts = node.closest_contacts(target, 10)
        distances = [xor_distance(ident, target) for ident, _ in contacts]
        assert distances == sorted(distances)


class TestOverlay:
    def test_hops_bounded(self):
        dht = KademliaDht.build(32)
        dht.stats.reset()
        for index in range(30):
            dht.lookup(f"key-{index}")
        assert dht.stats.hops / 30 < 3 * BUCKET_SIZE


class TestNoLiveContactIsTyped:
    """An iterative lookup whose shortlist is all-dead is *unreachable*
    (``NodeUnreachableError``): retried, captured per slot, and it
    degrades one subregion of a range query instead of aborting it."""

    def dead_shortlist_for(self, dht, key, monkeypatch):
        digest = key_digest(key)
        find = dht._iterative_find

        def all_dead(start, target):
            if target == digest:
                return [(digest ^ 1, "kad-ghost")]
            return find(start, target)

        monkeypatch.setattr(dht, "_iterative_find", all_dead)

    def test_route_owner_raises_node_unreachable(self, monkeypatch):
        from repro.common.errors import NodeUnreachableError

        dht = KademliaDht.build(8)
        self.dead_shortlist_for(dht, "k", monkeypatch)
        with pytest.raises(NodeUnreachableError):
            dht.route_owner("k")
        with pytest.raises(NodeUnreachableError):
            dht.get("k")

    def test_range_query_degrades_one_subregion(self, monkeypatch):
        import random

        from repro.common.config import IndexConfig
        from repro.common.geometry import Region
        from repro.core.index import MLightIndex
        from repro.core.keys import bucket_key
        from repro.core.naming import naming_function
        from repro.dht.retry import RetryingDht

        kademlia = KademliaDht.build(8)
        index = MLightIndex(
            RetryingDht(kademlia, attempts=2),
            IndexConfig(dims=2, split_threshold=10, merge_threshold=5),
        )
        rng = random.Random(3)
        points = [(rng.random(), rng.random()) for _ in range(200)]
        for point in points:
            index.insert(point)
        query = Region((0.1, 0.1), (0.9, 0.9))
        clean = index.range_query(query)
        assert clean.complete
        victim = sorted(clean.visited_leaves)[-1]
        self.dead_shortlist_for(
            kademlia, bucket_key(naming_function(victim, 2)), monkeypatch
        )
        result = index.range_query(query)
        assert not result.complete
        assert victim not in result.visited_leaves
        assert kademlia.stats.retries > 0  # unreachable is retried
        # The lost subregion is exactly what the victim would have
        # answered: every missing record lies in an unresolved region.
        missing = {r.key for r in clean.records} - {
            r.key for r in result.records
        }
        assert missing
        assert all(
            any(region.contains_point_closed(key)
                for region in result.unresolved)
            for key in missing
        )
