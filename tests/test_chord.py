"""Tests for the Chord overlay."""

from repro.dht.chord import ChordDht, SUCCESSOR_LIST_LEN


def ring_oracle(dht: ChordDht, key: str) -> str:
    """Successor of hash(key) among live node identifiers."""
    return dht.peer_of(key)


class TestStaticRing:
    def test_routing_hops_logarithmic(self):
        dht = ChordDht.build(64)
        dht.stats.reset()
        lookups = 50
        for index in range(lookups):
            dht.lookup(f"key-{index}")
        # log2(64) = 6; allow generous slack but exclude O(N) walks.
        assert dht.stats.hops / lookups < 10

    def test_ring_pointers_consistent(self):
        dht = ChordDht.build(10)
        names = dht.peers()
        for name in names:
            node = dht.node(name)
            successor = node.successors[0]
            # our successor's predecessor is us
            assert dht.node(successor.name).predecessor.name == name
            assert len(node.successors) <= SUCCESSOR_LIST_LEN


class TestJoin:
    def test_many_joins_converge(self):
        dht = ChordDht.build(4)
        for index in range(6):
            dht.join(f"late-{index}")
            dht.stabilize_all(2)
        for index in range(40):
            key = f"key-{index}"
            assert dht.lookup(key) == ring_oracle(dht, key)


class TestLeaveAndFail:
    def test_crash_loses_only_victim_data(self):
        dht = ChordDht.build(10)
        for index in range(80):
            dht.put(f"key-{index}", index)
        victim = dht.peers()[3]
        lost = len(dht.node(victim).store)
        dht.fail(victim)
        dht.stabilize_all(4)
        assert sum(1 for _ in dht.items()) == 80 - lost
        # Ring still routes for every surviving key.
        for key, value in list(dht.items())[:10]:
            assert dht.get(key) == value

    def test_successor_lists_recover_after_crash(self):
        dht = ChordDht.build(12)
        victim = dht.peers()[5]
        dht.fail(victim)
        dht.stabilize_all(4)
        for name in dht.peers():
            node = dht.node(name)
            successor = node.successors[0]
            assert successor.name != victim
            assert dht.network.is_registered(successor.name) or (
                successor.name == name
            )


class TestChurnSequence:
    def test_interleaved_membership_changes(self):
        from repro.dht.churn import run_churn

        dht = ChordDht.build(12)
        for index in range(60):
            dht.put(f"key-{index}", index)
        report = run_churn(
            dht, 10, join_weight=1, leave_weight=1, fail_weight=0, seed=3
        )
        # Graceful churn must not lose data.
        assert report.survival_ratio == 1.0
        assert len(report.events) > 0
        for index in range(60):
            assert dht.get(f"key-{index}") == index
