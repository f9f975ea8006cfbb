"""Tests for the Pastry overlay."""

from repro.dht.hashing import key_digest
from repro.dht.pastry import (
    N_DIGITS,
    PastryDht,
    digits_of,
    numeric_distance,
    shared_prefix_length,
)


class TestDigits:
    def test_digit_count_and_range(self):
        digits = digits_of(key_digest("x"))
        assert len(digits) == N_DIGITS
        assert all(0 <= digit < 16 for digit in digits)

    def test_roundtrip(self):
        ident = key_digest("roundtrip")
        rebuilt = 0
        for digit in digits_of(ident):
            rebuilt = (rebuilt << 4) | digit
        assert rebuilt == ident

    def test_shared_prefix(self):
        assert shared_prefix_length((1, 2, 3), (1, 2, 4)) == 2
        assert shared_prefix_length((1,), (2,)) == 0
        assert shared_prefix_length((1, 2), (1, 2)) == 2


class TestRouting:
    def test_hops_bounded_by_digits(self):
        dht = PastryDht.build(48)
        dht.stats.reset()
        for index in range(40):
            dht.lookup(f"key-{index}")
        assert dht.stats.hops / 40 < N_DIGITS


class TestMembership:
    def test_fail_forgets_contact(self):
        dht = PastryDht.build(12)
        victim = dht.peers()[4]
        dht.fail(victim)
        for name in dht.peers():
            node = dht.node(name)
            assert all(pair[1] != victim for pair in node.leaf_set)
        # Routing still works around the hole.
        for index in range(30):
            key = f"key-{index}"
            assert dht.lookup(key) == dht.peer_of(key)


class TestLeafSetInvariant:
    def test_leaf_sets_hold_numerically_closest(self):
        dht = PastryDht.build(20)
        idents = sorted(
            (dht.node(name).ident, name) for name in dht.peers()
        )
        for name in dht.peers():
            node = dht.node(name)
            others = [pair for pair in idents if pair[1] != name]
            closest = sorted(
                others,
                key=lambda pair: numeric_distance(pair[0], node.ident),
            )[: len(node.leaf_set)]
            assert set(node.leaf_set) == set(closest)
