"""Tests for consistent-hashing primitives and the peer store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import DhtKeyError
from repro.dht.hashing import (
    ID_BITS,
    ID_SPACE,
    key_digest,
    node_id_from_name,
    ring_between,
    ring_between_right_inclusive,
    ring_distance,
    xor_distance,
)
from repro.dht.storage import PeerStore


class TestDigests:
    def test_deterministic(self):
        assert key_digest("ml:001") == key_digest("ml:001")

    def test_spread(self):
        digests = {key_digest(f"key-{i}") for i in range(100)}
        assert len(digests) == 100

    def test_width(self):
        assert 0 <= key_digest("x") < ID_SPACE
        assert ID_SPACE == 1 << ID_BITS

    def test_node_ids_differ_from_key_digests(self):
        assert node_id_from_name("x") != key_digest("x")


class TestRingIntervals:
    def test_plain_interval(self):
        assert ring_between(5, 1, 10)
        assert not ring_between(1, 1, 10)
        assert not ring_between(10, 1, 10)

    def test_wrapping_interval(self):
        high = ID_SPACE - 5
        assert ring_between(2, high, 10)
        assert ring_between(ID_SPACE - 1, high, 10)
        assert not ring_between(50, high, 10)

    def test_degenerate_interval_is_whole_ring(self):
        assert ring_between(123, 7, 7)
        assert not ring_between(7, 7, 7)

    def test_right_inclusive(self):
        assert ring_between_right_inclusive(10, 1, 10)
        assert not ring_between_right_inclusive(1, 1, 10)

    @given(st.integers(0, ID_SPACE - 1), st.integers(0, ID_SPACE - 1))
    def test_distance_antisymmetry(self, a, b):
        if a != b:
            assert ring_distance(a, b) + ring_distance(b, a) == ID_SPACE
        else:
            assert ring_distance(a, b) == 0

    @given(st.integers(0, ID_SPACE - 1), st.integers(0, ID_SPACE - 1))
    def test_xor_metric_axioms(self, a, b):
        assert xor_distance(a, b) == xor_distance(b, a)
        assert xor_distance(a, a) == 0


class TestPeerStore:
    def test_put_get_remove(self):
        store = PeerStore()
        store.put("k", 1)
        assert store.get("k") == 1
        assert "k" in store
        assert len(store) == 1
        assert store.remove("k") == 1
        assert "k" not in store

    def test_remove_missing_raises(self):
        with pytest.raises(DhtKeyError):
            PeerStore().remove("nope")

    def test_get_missing_is_none(self):
        assert PeerStore().get("nope") is None

    def test_overwrite_keeps_single_entry(self):
        store = PeerStore()
        store.put("k", 1)
        store.put("k", 2)
        assert store.get("k") == 2
        assert len(store) == 1

    def test_digest_cached(self):
        store = PeerStore()
        store.put("k", 1)
        assert store.digest_of("k") == key_digest("k")

    def test_pop_range_moves_matching(self):
        store = PeerStore()
        for index in range(20):
            store.put(f"key-{index}", index)
        threshold = key_digest("key-10")
        moved = store.pop_range(lambda digest: digest <= threshold)
        assert ("key-10", 10) in moved
        assert all(key_digest(key) <= threshold for key, _ in moved)
        assert len(moved) + len(store) == 20
        for key, _ in moved:
            assert key not in store

    def test_pop_range_wrapping_interval(self):
        """Churn handoff with a digest range that wraps past zero.

        A joining peer whose predecessor sits near the top of the ring
        takes over ``(lo, hi]`` with ``lo > hi``; the handoff predicate
        is :func:`ring_between_right_inclusive`, which must select keys
        on *both* sides of the wrap point.
        """
        store = PeerStore()
        keys = [f"wrap-{index}" for index in range(64)]
        for key in keys:
            store.put(key, key.upper())
        digests = sorted(key_digest(key) for key in keys)
        # Pick bounds so the wrapped interval covers the lowest and
        # highest digests but excludes the middle of the ring.
        lo = digests[-8]  # high end of the ring: interval starts here...
        hi = digests[7]  # ...wraps through 0, ends at the low end.
        assert lo > hi, "interval must wrap for this test to bite"
        moved = store.pop_range(
            lambda digest: ring_between_right_inclusive(digest, lo, hi)
        )
        expected = {
            key
            for key in keys
            if ring_between_right_inclusive(key_digest(key), lo, hi)
        }
        assert {key for key, _ in moved} == expected
        # Both sides of the wrap point are represented.
        assert any(key_digest(key) > lo for key in expected)
        assert any(key_digest(key) <= hi for key in expected)
        for key, value in moved:
            assert key not in store
            assert value == key.upper()
        assert len(store) == len(keys) - len(moved)

    def test_pop_range_then_digest_of_raises_dht_error(self):
        store = PeerStore()
        store.put("gone", 1)
        store.pop_range(lambda digest: True)
        with pytest.raises(DhtKeyError):
            store.digest_of("gone")

    def test_digest_of_after_remove_raises_dht_error(self):
        """A removed key must raise the domain error, not bare KeyError."""
        store = PeerStore()
        store.put("k", 1)
        store.remove("k")
        with pytest.raises(DhtKeyError):
            store.digest_of("k")

    def test_digest_of_missing_raises_dht_error(self):
        with pytest.raises(DhtKeyError):
            PeerStore().digest_of("never-stored")
