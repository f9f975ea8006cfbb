"""Tests for the Chord overlay."""

import bisect
import random

from repro.dht.chord import ChordDht, SUCCESSOR_LIST_LEN
from repro.dht.hashing import ID_SPACE, key_digest


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


def sorted_successor(dht: ChordDht, digest: int) -> str:
    """Ring successor of *digest* by sorting every live node and
    bisecting: the reference for the oracle's one-pass ``min``."""
    refs = sorted((node.ident, node.name) for node in dht._nodes.values())
    index = bisect.bisect_left(refs, (digest, ""))
    return refs[index % len(refs)][1]


class TestOwnerOracle:
    def probe_digests(self, dht: ChordDht, rng: random.Random) -> list[int]:
        idents = sorted(node.ident for node in dht._nodes.values())
        # Each id itself, one either side of it (one past the largest
        # id wraps to the smallest), and both ends of the id space.
        return [
            *idents,
            *(ident + 1 for ident in idents),
            *(ident - 1 for ident in idents),
            0,
            ID_SPACE - 1,
            *(rng.randrange(ID_SPACE) for _ in range(200)),
            *(key_digest(f"key-{index}") for index in range(200)),
        ]

    def assert_oracle_matches(self, dht: ChordDht, rng: random.Random):
        for digest in self.probe_digests(dht, rng):
            assert dht._owner_of_digest(digest).name == sorted_successor(
                dht, digest
            )

    def test_successor_equals_sorted_bisect_through_churn(self):
        rng = random.Random(17)
        dht = ChordDht.build(16)
        self.assert_oracle_matches(dht, rng)
        for index in range(4):
            dht.join(f"late-{index}")
        self.assert_oracle_matches(dht, rng)
        dht.leave(dht.peers()[3])
        dht.leave(dht.peers()[7])
        self.assert_oracle_matches(dht, rng)
        dht.fail(dht.peers()[0])
        dht.fail(dht.peers()[-1])
        dht.stabilize_all(2)
        self.assert_oracle_matches(dht, rng)
        for index in range(50):
            key = f"key-{index}"
            assert dht.peer_of(key) == sorted_successor(dht, key_digest(key))
