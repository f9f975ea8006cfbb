"""Tests for the retrying DHT decorator over lossy networks."""

import random

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import DhtKeyError, ReproError
from repro.common.geometry import Region
from repro.core.index import MLightIndex
from repro.dht.chord import ChordDht
from repro.dht.localhash import LocalDht
from repro.dht.retry import RetryingDht
from repro.net.simnet import RpcError, SimNetwork
from tests.conftest import brute_force_range


class FlakyDht(LocalDht):
    """LocalDht that fails the first *failures* wire operations."""

    def __init__(self, failures: int):
        super().__init__(8)
        self._failures = failures

    def exchange(self, peer, op, key, value=None):
        if self._failures > 0:
            self._failures -= 1
            raise RpcError("injected failure")
        return super().exchange(peer, op, key, value)


class TestRetrySemantics:
    def test_transparent_success(self):
        dht = RetryingDht(LocalDht(8))
        dht.put("k", 1)
        assert dht.get("k") == 1
        assert dht.retries == 0

    def test_retries_transient_failures(self):
        dht = RetryingDht(FlakyDht(failures=2), attempts=3)
        dht.put("k", 1)  # first op eats both failures via retries
        assert dht.get("k") == 1
        assert dht.retries == 2

    def test_gives_up_after_attempts(self):
        dht = RetryingDht(FlakyDht(failures=10), attempts=3)
        with pytest.raises(RpcError):
            dht.put("k", 1)
        assert dht.retries == 2  # attempts - 1

    def test_data_errors_not_retried(self):
        dht = RetryingDht(LocalDht(8), attempts=3)
        with pytest.raises(DhtKeyError):
            dht.remove("ghost")
        assert dht.retries == 0

    def test_attempts_are_metered(self):
        """Each retried attempt costs a real DHT-lookup."""
        dht = RetryingDht(FlakyDht(failures=2), attempts=3)
        dht.put("k", 1)
        assert dht.stats.lookups == 3  # two failures + one success

    def test_invalid_attempts(self):
        with pytest.raises(ReproError):
            RetryingDht(LocalDht(8), attempts=0)

    def test_oracle_passthrough(self):
        inner = LocalDht(8)
        dht = RetryingDht(inner)
        dht.put("k", 1)
        assert dht.peer_of("k") == inner.peer_of("k")
        assert dict(dht.items()) == {"k": 1}
        assert dht.peek("k") == 1
        assert dht.peers() == inner.peers()


class TestIndexOverLossyChord:
    def test_index_survives_message_drops(self):
        """m-LIGHT over a Chord ring dropping 2% of messages, wrapped
        in retries: every operation still completes and answers stay
        exact."""
        rng = random.Random(1)
        network = SimNetwork(drop_probability=0.02, seed=7)
        chord = ChordDht.build(12, network=network)
        dht = RetryingDht(chord, attempts=8)
        config = IndexConfig(
            dims=2, max_depth=12, split_threshold=10, merge_threshold=5
        )
        index = MLightIndex(dht, config)
        points = [(rng.random(), rng.random()) for _ in range(120)]
        for point in points:
            index.insert(point)
        query = Region((0.2, 0.2), (0.8, 0.8))
        got = sorted(r.key for r in index.range_query(query).records)
        assert got == brute_force_range(points, query)
        assert dht.retries > 0  # the drops actually happened
