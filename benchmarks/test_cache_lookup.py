"""Client leaf cache under a skewed repeated-region workload.

A client that keeps returning to the same few regions should answer
most lookups with one hinted DHT-get instead of the Section-5 binary
search (~log D probes).  The cache never under-meters: hint probes are
ordinary metered DHT-gets, so the ≥2× reduction asserted here is an
honest count of routed operations.
"""

import random
from dataclasses import replace

import pytest

from repro.core.index import MLightIndex
from repro.dht.localhash import LocalDht

from .conftest import publish_text

HOT_KEYS = 32
LOOKUPS = 2000


@pytest.fixture(scope="module")
def loaded_dht(dataset, paper_config):
    """A LocalDht pre-loaded with 8000 points (no client cache)."""
    dht = LocalDht(32)
    index = MLightIndex(dht, paper_config)
    for point in dataset[: min(len(dataset), 8000)]:
        index.insert(point)
    return dht


@pytest.fixture(scope="module")
def skewed_keys(dataset):
    """2000 lookups drawn from 32 hot keys (repeated-region skew)."""
    rng = random.Random(7)
    hot = rng.sample(dataset[: min(len(dataset), 8000)], HOT_KEYS)
    return [rng.choice(hot) for _ in range(LOOKUPS)]


def replay(client, dht, keys):
    """Metered DHT-lookups consumed by replaying *keys* on *client*."""
    before = dht.stats.lookups
    for key in keys:
        client.lookup(key)
    return dht.stats.lookups - before


@pytest.mark.smoke
def test_cache_halves_lookups(loaded_dht, paper_config, skewed_keys, dataset):
    uncached = MLightIndex(loaded_dht, paper_config)
    cached = MLightIndex(
        loaded_dht, replace(paper_config, cache_capacity=256)
    )

    uncached_lookups = replay(uncached, loaded_dht, skewed_keys)
    cached_lookups = replay(cached, loaded_dht, skewed_keys)

    stats = loaded_dht.stats
    lines = [
        f"workload: {LOOKUPS} lookups over {HOT_KEYS} hot keys",
        f"uncached DHT-lookups: {uncached_lookups}",
        f"cached DHT-lookups:   {cached_lookups}",
        f"cache hits/stale/misses: {stats.cache_hits}"
        f"/{stats.cache_stale}/{stats.cache_misses}",
    ]
    publish_text("cache_lookup.txt", "\n".join(lines), dataset)

    assert 2 * cached_lookups <= uncached_lookups


@pytest.mark.smoke
def test_warm_cached_lookup(loaded_dht, paper_config, skewed_keys):
    """A warm hinted lookup (the cache holds every hot leaf) costs one
    DHT-get."""
    cached = MLightIndex(
        loaded_dht, replace(paper_config, cache_capacity=256)
    )
    for key in skewed_keys[:200]:
        cached.lookup(key)
    assert replay(cached, loaded_dht, skewed_keys[:1]) == 1
