"""Tests for the Kademlia overlay."""

import pytest

from repro.common.errors import DhtKeyError, ReproError
from repro.dht.hashing import key_digest, xor_distance
from repro.dht.kademlia import BUCKET_SIZE, KademliaDht, KademliaNode
from repro.net.simnet import SimNetwork


def xor_oracle(dht: KademliaDht, key: str) -> str:
    return dht.peer_of(key)


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
    def test_lookup_agrees_with_xor_oracle(self):
        dht = KademliaDht.build(24)
        for index in range(50):
            key = f"key-{index}"
            assert dht.lookup(key) == xor_oracle(dht, key)

    def test_put_get_remove(self):
        dht = KademliaDht.build(12)
        dht.put("k", "v", records_moved=1)
        assert dht.get("k") == "v"
        assert dht.remove("k") == "v"
        with pytest.raises(DhtKeyError):
            dht.remove("k")

    def test_value_lands_on_closest_node(self):
        dht = KademliaDht.build(16)
        dht.put("payload", 42)
        owner = dht.node(xor_oracle(dht, "payload"))
        assert owner.store.get("payload") == 42

    def test_hops_bounded(self):
        dht = KademliaDht.build(32)
        dht.stats.reset()
        for index in range(30):
            dht.lookup(f"key-{index}")
        assert dht.stats.hops / 30 < 3 * BUCKET_SIZE

    def test_build_rejects_zero(self):
        with pytest.raises(ReproError):
            KademliaDht.build(0)

    def test_join_pulls_owned_keys(self):
        dht = KademliaDht.build(8)
        for index in range(60):
            dht.put(f"key-{index}", index)
        dht.join("kad-late")
        late = dht.node("kad-late")
        for key, _ in late.store.items():
            assert xor_oracle(dht, key) == "kad-late"
        assert sum(1 for _ in dht.items()) == 60
        # Storage still routable.
        for index in range(0, 60, 7):
            assert dht.get(f"key-{index}") == index

    def test_duplicate_join_rejected(self):
        dht = KademliaDht.build(4)
        with pytest.raises(ReproError):
            dht.join("kad-0000")


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
