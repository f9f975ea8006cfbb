"""Tests for the client leaf cache and the hinted lookup path.

Covers the LeafCache data structure itself, the one-probe warm hit,
honest metering of hint probes, and — the part that makes caching safe
— staleness: splits and merges (including cascading merges) performed
by *another* client between cached lookups must never produce a wrong
answer, only tightened fallback searches.
"""

import random
from dataclasses import replace

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import ReproError
from repro.core.cache import HintTable, LeafCache
from repro.core.index import MLightIndex
from repro.core.lookup import lookup_point
from repro.core.naming import moved_child, naming_function, survivor_child
from repro.dht.localhash import LocalDht
from tests.test_lookup import materialize_tree


def make_pair(cache_capacity=64, **overrides):
    """A writer (uncached) and a reader (cached) sharing one DHT."""
    defaults = dict(
        dims=2, max_depth=16, split_threshold=8, merge_threshold=4
    )
    defaults.update(overrides)
    config = IndexConfig(**defaults)
    dht = LocalDht(16)
    writer = MLightIndex(dht, config)
    reader = MLightIndex(
        dht, replace(config, cache_capacity=cache_capacity)
    )
    return writer, reader, dht


def cluster(rng, n, corner=0.0, side=0.12):
    """n random points inside one small square (forces deep splits)."""
    return [
        (corner + rng.random() * side, corner + rng.random() * side)
        for _ in range(n)
    ]


@pytest.mark.parametrize("table_class", [HintTable, LeafCache])
class TestHintTableUnit:
    """The one hint table, as the adaptive plane's shortcuts (key ->
    peer) and as the leaf cache (labels) use it."""

    def test_capacity_must_be_positive(self, table_class):
        with pytest.raises(ReproError):
            table_class(0)

    def test_observe_get_and_contains(self, table_class):
        table = table_class(4)
        table.observe("0010", "p1")
        table.observe("0011")  # presence only, as the leaf cache keeps
        assert "0010" in table and "0011" in table
        assert "0100" not in table
        assert table.get("0010") == "p1"
        assert table.get("0011") is True
        assert table.get("0100") is None
        assert len(table) == 2

    def test_lru_eviction_drops_oldest(self, table_class):
        table = table_class(2)
        table.observe("0010")
        table.observe("0011")
        table.observe("0100")
        assert "0010" not in table
        assert "0011" in table and "0100" in table
        assert len(table) == 2

    def test_observe_refreshes_recency(self, table_class):
        table = table_class(2)
        table.observe("0010")
        table.observe("0011")
        table.observe("0010", "p2")  # refresh: 0011 is now the oldest
        table.observe("0100")
        assert "0011" not in table
        assert table.get("0010") == "p2"

    def test_get_refreshes_recency(self, table_class):
        table = table_class(2)
        table.observe("k1", "p1")
        table.observe("k2", "p2")
        assert table.get("k1") == "p1"  # k1 is now most recent
        table.observe("k3", "p3")  # evicts k2, the least recent
        assert table.get("k2") is None
        assert table.get("k1") == "p1" and table.get("k3") == "p3"

    def test_generation_bump_invalidates_everything(self, table_class):
        table = table_class(4)
        table.observe("k", "p")
        assert "k" in table
        table.bump_generation()
        assert "k" not in table
        assert table.get("k") is None  # lazily evicted
        assert len(table) == 0
        table.observe("k", "p2")  # observable again in the new generation
        assert table.get("k") == "p2"

    def test_forget_and_clear(self, table_class):
        table = table_class(8)
        table.observe("0010")
        table.observe("0011")
        table.forget("0010")
        table.forget("0100")  # absent: nothing to drop
        assert "0010" not in table and "0011" in table
        table.clear()
        assert len(table) == 0


class TestLeafCacheUnit:
    def test_propose_refreshes_recency(self):
        cache = LeafCache(2)
        cache.observe("0010")
        cache.observe("0011")
        assert cache.propose("00101111", 3, 8) == "0010"
        cache.observe("0100")  # 0011 was the LRU entry now
        assert "0010" in cache
        assert "0011" not in cache

    def test_propose_returns_deepest_prefix(self):
        cache = LeafCache(8)
        cache.observe("001")
        cache.observe("00101")
        assert cache.propose("00101101", 3, 8) == "00101"

    def test_propose_respects_bounds(self):
        cache = LeafCache(8)
        cache.observe("00101")
        assert cache.propose("00101101", 6, 8) is None
        assert cache.propose("00101101", 3, 4) is None
        assert cache.propose("00101101", 5, 5) == "00101"

    def test_propose_ignores_non_prefixes(self):
        cache = LeafCache(8)
        cache.observe("00110")
        assert cache.propose("00101101", 3, 8) is None

    def test_propose_drops_a_stale_generation(self):
        cache = LeafCache(8)
        cache.observe("001")
        cache.bump_generation()
        cache.observe("00101")
        assert cache.propose("00101101", 3, 4) is None
        assert len(cache) == 1  # the stale label went on the walk
        assert cache.propose("00101101", 3, 8) == "00101"


class TestHintedLookup:
    def test_warm_hit_costs_one_probe(self):
        writer, reader, dht = make_pair()
        rng = random.Random(1)
        for point in cluster(rng, 40):
            writer.insert(point)
        target = (0.05, 0.05)
        first = reader.lookup(target)
        assert first.bucket.covers(target)
        before = dht.stats.snapshot()
        second = reader.lookup(target)
        assert second.bucket.covers(target)
        assert second.lookups == 1
        assert dht.stats.lookups - before["lookups"] == 1
        assert dht.stats.cache_hits - before["cache_hits"] == 1

    def test_hint_probes_are_metered(self):
        """stats.lookups advances by exactly result.lookups — the hint
        probe is a paid DHT-get, never an oracle read."""
        writer, reader, dht = make_pair()
        rng = random.Random(2)
        points = cluster(rng, 60) + cluster(rng, 60, corner=0.5)
        for point in points:
            writer.insert(point)
        for point in rng.sample(points, 30):
            before = dht.stats.lookups
            result = reader.lookup(point)
            assert result.lookups >= 1
            assert dht.stats.lookups - before == result.lookups

    def test_every_lookup_tallies_one_outcome(self):
        writer, reader, dht = make_pair()
        rng = random.Random(3)
        points = cluster(rng, 50)
        for point in points:
            writer.insert(point)
        n = 40
        before = dht.stats.snapshot()
        for _ in range(n):
            reader.lookup(rng.choice(points))
        outcomes = (
            dht.stats.cache_hits
            + dht.stats.cache_stale
            + dht.stats.cache_misses
        ) - (
            before["cache_hits"]
            + before["cache_stale"]
            + before["cache_misses"]
        )
        assert outcomes == n

    def test_bump_generation_forces_misses(self):
        writer, reader, dht = make_pair()
        rng = random.Random(4)
        for point in cluster(rng, 40):
            writer.insert(point)
        target = (0.05, 0.05)
        reader.lookup(target)
        reader.cache.bump_generation()
        before = dht.stats.snapshot()
        result = reader.lookup(target)
        assert result.bucket.covers(target)
        assert dht.stats.cache_misses - before["cache_misses"] == 1
        assert dht.stats.cache_hits == before["cache_hits"]

    def test_single_client_cache_never_goes_stale(self):
        """A client that performs all its own splits and merges keeps
        its cache exact: split/merge hooks retire dead labels."""
        dht = LocalDht(16)
        config = IndexConfig(
            dims=2, max_depth=16, split_threshold=8,
            merge_threshold=4, cache_capacity=128,
        )
        index = MLightIndex(dht, config)
        rng = random.Random(5)
        points = cluster(rng, 80) + cluster(rng, 80, corner=0.6)
        for point in points:
            index.insert(point)
            index.lookup(rng.choice(points))
        for point in points[: len(points) // 2]:
            index.delete(point)
            index.lookup(rng.choice(points))
        assert dht.stats.cache_stale == 0
        index.check_invariants()


class TestStaleHints:
    """Hand-built trees: deterministic split/merge staleness."""

    def test_stale_hint_after_merge_probe_misses(self):
        """The cached leaf merged away and its name's key vanished:
        the probe misses, and the fallback still finds the parent.

        The *moved* child is the one whose key dies in a merge — the
        survivor's key is exactly where the merged parent now lives, so
        a survivor hint degrades into a legitimate one-probe hit.
        """
        dims, depth = 2, 10
        cache = LeafCache(8)
        dht_before = LocalDht(8)
        materialize_tree(["0010", "0011"], dims, dht_before)
        moved = moved_child("001", dims)
        point = covering_point(moved, dims)
        first = lookup_point(dht_before, point, dims, depth, cache=cache)
        assert first.bucket.label == moved
        assert moved in cache

        dht_after = LocalDht(8)  # both children merged into the root
        materialize_tree(["001"], dims, dht_after)
        before = dht_after.stats.snapshot()
        result = lookup_point(dht_after, point, dims, depth, cache=cache)
        assert result.bucket.label == "001"
        assert dht_after.stats.cache_stale - before["cache_stale"] == 1
        assert dht_after.stats.lookups - before["lookups"] == result.lookups
        assert moved not in cache  # retired by the stale probe
        assert "001" in cache  # the covering leaf was observed

    def test_survivor_hint_after_merge_degrades_to_hit(self):
        """A cached survivor child points at the very key the merged
        parent now occupies: one probe, covering bucket — a hit."""
        dims, depth = 2, 10
        cache = LeafCache(8)
        dht_before = LocalDht(8)
        materialize_tree(["0010", "0011"], dims, dht_before)
        survivor = survivor_child("001", dims)
        point = covering_point(survivor, dims)
        lookup_point(dht_before, point, dims, depth, cache=cache)
        assert survivor in cache

        dht_after = LocalDht(8)
        materialize_tree(["001"], dims, dht_after)
        before = dht_after.stats.snapshot()
        result = lookup_point(dht_after, point, dims, depth, cache=cache)
        assert result.bucket.label == "001"
        assert result.lookups == 1
        assert dht_after.stats.cache_hits - before["cache_hits"] == 1

    def test_stale_hint_after_split_probe_non_covering(self):
        """The cached leaf split: fmd(hint) is internal, the probe
        returns its named (non-covering) leaf, and the tightened
        fallback finds the right child."""
        dims, depth = 2, 10
        cache = LeafCache(8)
        dht_before = LocalDht(8)
        materialize_tree(["0010", "0011"], dims, dht_before)
        point = (0.1, 0.1)
        first = lookup_point(dht_before, point, dims, depth, cache=cache)
        split_label = first.bucket.label

        children = [split_label + "0", split_label + "1"]
        other = [lf for lf in ["0010", "0011"] if lf != split_label]
        leaves_after = children + other
        survivor = next(
            leaf for leaf in children
            if naming_function(leaf, dims)
            == naming_function(split_label, dims)
        )
        non_survivor = next(c for c in children if c != survivor)
        dht_after = LocalDht(8)
        materialize_tree(leaves_after, dims, dht_after)
        # A point inside the non-survivor child: the hinted probe hits
        # the survivor, which cannot cover it -> guaranteed stale.
        target = covering_point(non_survivor, dims)
        lookup_point(dht_before, target, dims, depth, cache=cache)
        before = dht_after.stats.snapshot()
        result = lookup_point(dht_after, target, dims, depth, cache=cache)
        assert result.bucket.label == non_survivor
        assert dht_after.stats.cache_stale - before["cache_stale"] == 1
        assert dht_after.stats.lookups - before["lookups"] == result.lookups
        assert survivor in cache  # the stale probe still taught us a leaf


def covering_point(label, dims):
    """The center of the cell of *label* (a point it must cover)."""
    from repro.common.geometry import region_of_label

    region = region_of_label(label, dims)
    return tuple(
        (low + high) / 2 for low, high in zip(region.lows, region.highs)
    )


class TestSharedDhtChurn:
    """Two index clients on one DHT: the writer churns the tree, the
    reader keeps looking up through a (now stale) cache."""

    def test_reader_correct_across_writer_splits(self):
        writer, reader, dht = make_pair()
        rng = random.Random(6)
        seed_points = cluster(rng, 6)
        for point in seed_points:
            writer.insert(point)
        for point in seed_points:
            reader.lookup(point)  # cache the shallow tree
        for point in cluster(rng, 120):  # deep splits in the region
            writer.insert(point)
        for point in seed_points:
            result = reader.lookup(point)
            assert result.bucket.covers(point)
        writer.check_invariants()

    def test_reader_correct_across_writer_merges(self):
        writer, reader, dht = make_pair()
        rng = random.Random(7)
        points = cluster(rng, 120)
        for point in points:
            writer.insert(point)
        for point in points[:20]:
            reader.lookup(point)  # cache deep leaves
        for point in points[:110]:  # cascading merges back up
            assert writer.delete(point)
        for point in points[110:]:
            result = reader.lookup(point)
            assert result.bucket.covers(point)
        writer.check_invariants()

    def test_reader_correct_across_cascading_merge_to_root(self):
        writer, reader, dht = make_pair(split_threshold=4,
                                        merge_threshold=2)
        rng = random.Random(8)
        points = cluster(rng, 40, side=0.05)
        for point in points:
            writer.insert(point)
        for point in points:
            reader.lookup(point)
        survivors = points[-2:]
        for point in points[:-2]:
            assert writer.delete(point)
        writer.check_invariants()
        for point in survivors:
            result = reader.lookup(point)
            assert result.bucket.covers(point)

    def test_staleness_is_observed_and_survivable(self):
        """Across heavy churn the reader must see at least one stale
        hint — and every answer must still be the covering leaf."""
        writer, reader, dht = make_pair()
        rng = random.Random(9)
        points = cluster(rng, 100)
        for point in points[:10]:
            writer.insert(point)
        for point in points[:10]:
            reader.lookup(point)
        for point in points[10:]:
            writer.insert(point)
        for point in points:
            result = reader.lookup(point)
            assert result.bucket.covers(point)
        assert dht.stats.cache_stale > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_churn_property(self, seed):
        """Random interleaving of writer inserts/deletes and cached
        reader lookups: every lookup answers correctly, metering never
        under-counts, and the tree invariants hold throughout."""
        writer, reader, dht = make_pair(split_threshold=6,
                                        merge_threshold=3)
        rng = random.Random(seed)
        live = []
        for _ in range(250):
            action = rng.random()
            if action < 0.5 or not live:
                point = (rng.random() * 0.3, rng.random() * 0.3)
                writer.insert(point)
                live.append(point)
            elif action < 0.75:
                victim = live.pop(rng.randrange(len(live)))
                assert writer.delete(victim)
            else:
                target = rng.choice(live)
                before = dht.stats.lookups
                result = reader.lookup(target)
                assert result.bucket.covers(target)
                assert dht.stats.lookups - before == result.lookups
        writer.check_invariants()


class TestProactiveInvalidation:
    """Satellite fix: a *subscribed* reader's cache hears about merges
    when they happen, not when a probe fails.

    Without a subscription, a hint for a merged-away leaf survives in
    the cache until the next lookup pays a wasted probe
    (``cache_stale``).  The dissemination plane's re-homing
    notifications forget dead labels and observe born ones proactively,
    so the subscribed reader performs **zero** stale-hint probes across
    the same churn.
    """

    REGION = ((0.0, 0.0), (0.25, 0.25))

    def churn(self, subscribe):
        from repro.common.geometry import as_region
        from repro.mcast import ContinuousQueryPlane

        writer, reader, dht = make_pair()
        plane = ContinuousQueryPlane(writer)
        rng = random.Random(9)
        points = cluster(rng, 120)
        for point in points:
            writer.insert(point)
        if subscribe:
            plane.subscribe(as_region(self.REGION), cache=reader.cache)
        for point in points[:20]:
            reader.lookup(point)  # cache deep leaves
        for point in points[:110]:  # cascading merges back up
            assert writer.delete(point)
        before = dht.stats.snapshot()
        for point in points[110:]:
            result = reader.lookup(point)
            assert result.bucket.covers(point)
        writer.check_invariants()
        return dht.stats.cache_stale - before["cache_stale"]

    def test_unsubscribed_reader_pays_stale_probes(self):
        """Control: the very churn the fix addresses really does
        produce stale-hint probes without notifications."""
        assert self.churn(subscribe=False) > 0

    def test_subscribed_reader_makes_zero_stale_probes(self):
        assert self.churn(subscribe=True) == 0

    def test_notifications_rewrite_hints_to_live_labels(self):
        """After a split, the reader's cache holds the born children
        (deep, usable hints), not the dead origin."""
        from repro.common.geometry import as_region
        from repro.mcast import ContinuousQueryPlane

        writer, reader, dht = make_pair()
        plane = ContinuousQueryPlane(writer)
        rng = random.Random(10)
        seeds = cluster(rng, 6)
        for point in seeds:
            writer.insert(point)
        subscriber = plane.subscribe(
            as_region(self.REGION), cache=reader.cache
        )
        for point in seeds:
            reader.lookup(point)
        for point in cluster(rng, 120):
            writer.insert(point)  # deep splits in the region
        assert subscriber.invalidations
        dead = {
            label
            for invalidation in subscriber.invalidations
            for label in invalidation[0]
        }
        born = {
            label
            for invalidation in subscriber.invalidations
            for label in invalidation[1]
        }
        # Dead labels that never came back must be out of the cache.
        for label in dead - born:
            assert label not in reader.cache
        before = dht.stats.snapshot()
        for point in seeds:
            assert reader.lookup(point).bucket.covers(point)
        assert dht.stats.cache_stale - before["cache_stale"] == 0
