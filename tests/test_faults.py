"""Tests for the fault-injection plane and graceful degradation.

Covers the reproducibility contract (same plan seed, same faults,
bit-for-bit), each injectable fault kind, the backoff/deadline budget
of the retry wrapper, and the partial-result contract of the query
engines: probes that stay unreachable degrade the answer to
``complete=False`` with unresolved regions — they never surface
``NodeUnreachableError`` to the query caller.
"""

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.rng import make_rng
from repro.core.cache import LeafCache
from repro.core.index import MLightIndex
from repro.core.keys import bucket_key
from repro.core.naming import merge_homes, naming_function
from repro.core.rangequery import RangeQueryEngine
from repro.dht.api import BatchFailure
from repro.dht.chord import ChordDht
from repro.dht.faults import (
    FAULT_KINDS,
    FaultInjectedError,
    FaultPlan,
    FaultyDht,
)
from repro.dht.localhash import LocalDht
from repro.dht.retry import RetryingDht
from repro.obs.trace import Tracer
from repro.service.node import ServiceDht
from tests.conftest import PerKeyDht

CONFIG = IndexConfig(
    dims=2, max_depth=12, split_threshold=10, merge_threshold=5
)


def uniform_points(count, seed=5):
    rng = make_rng(seed)
    return [(rng.random(), rng.random()) for _ in range(count)]


def leaf_key(index, point):
    """The DHT key of the leaf bucket covering *point*."""
    label = index.lookup(point).bucket.label
    return bucket_key(naming_function(label, CONFIG.dims))


class TestFaultPlan:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_negative_rate_rejected(self, kind):
        with pytest.raises(ReproError):
            FaultPlan(**{f"{kind}_rate": -0.1})

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_rate_of_one_rejected(self, kind):
        with pytest.raises(ReproError):
            FaultPlan(**{f"{kind}_rate": 1.0})

    def test_rates_summing_to_one_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan(drop_rate=0.5, timeout_rate=0.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan(timeout_delay=-1.0)

    def test_same_seed_same_decisions(self):
        make = lambda: FaultPlan(
            7, drop_rate=0.2, timeout_rate=0.1, slow_rate=0.1,
            stale_rate=0.1,
        )
        a, b = make(), make()
        decisions = [a.decide("get", f"k{i}") for i in range(300)]
        assert decisions == [b.decide("get", f"k{i}") for i in range(300)]
        assert len({d for d in decisions if d}) == 4  # all kinds drawn

    def test_different_seed_different_decisions(self):
        a = FaultPlan(1, drop_rate=0.3)
        b = FaultPlan(2, drop_rate=0.3)
        assert [a.decide("get", "k") for _ in range(100)] != [
            b.decide("get", "k") for _ in range(100)
        ]

    def test_reset_rewinds_the_stream(self):
        plan = FaultPlan(3, drop_rate=0.4, slow_rate=0.2)
        first = [plan.decide("get", f"k{i}") for i in range(50)]
        plan.reset()
        assert [plan.decide("get", f"k{i}") for i in range(50)] == first

    def test_dead_keys_drop_without_consuming_draws(self):
        plain = FaultPlan(9, drop_rate=0.3)
        dead = FaultPlan(9, drop_rate=0.3, dead_keys=["victim"])
        for i in range(100):
            assert dead.decide("get", "victim") == "drop"
            # The random stream stays aligned with the plain plan.
            assert dead.decide("get", f"k{i}") == plain.decide(
                "get", f"k{i}"
            )


class TestFaultyDhtKinds:
    def test_drop_raises_and_meters(self):
        faulty = FaultyDht(LocalDht(8), FaultPlan(0, drop_rate=0.99))
        with faulty.suspended():
            faulty.put("k", "v")
        with pytest.raises(FaultInjectedError):
            faulty.get("k")
        assert faulty.stats.faults_dropped == 1
        assert faulty.stats.faults_injected == 1

    def test_timeout_charges_clock_then_raises(self):
        faulty = FaultyDht(
            LocalDht(8),
            FaultPlan(0, timeout_rate=0.99, timeout_delay=4.0),
        )
        before = faulty.clock.now
        with pytest.raises(FaultInjectedError):
            faulty.get("k")
        assert faulty.clock.now == before + 4.0
        assert faulty.stats.faults_timed_out == 1

    def test_slow_charges_clock_and_succeeds(self):
        faulty = FaultyDht(
            LocalDht(8), FaultPlan(0, slow_rate=0.99, slow_delay=1.5)
        )
        with faulty.suspended():
            faulty.put("k", "v")
        before = faulty.clock.now
        assert faulty.get("k") == "v"
        assert faulty.clock.now == before + 1.5
        assert faulty.stats.faults_slowed == 1

    def test_stale_read_returns_superseded_value(self):
        faulty = FaultyDht(LocalDht(8), FaultPlan(0, stale_rate=0.99))
        with faulty.suspended():
            faulty.put("k", "old")
            faulty.put("k", "new")
        assert faulty.get("k") == "old"
        assert faulty.stats.faults_stale == 1

    def test_stale_read_of_once_written_key_is_live(self):
        """A key with no superseded version has nothing stale to serve."""
        faulty = FaultyDht(LocalDht(8), FaultPlan(0, stale_rate=0.99))
        with faulty.suspended():
            faulty.put("k", "only")
        assert faulty.get("k") == "only"
        assert faulty.stats.faults_stale == 0

    def test_stale_fall_through_of_a_direct_read_stays_direct(self):
        """A non-owner holds nothing: the bare answer is ``None``, and a
        stale draw with no superseded version must not re-route."""
        bare = LocalDht(8)
        faulty = FaultyDht(LocalDht(8), FaultPlan(0, stale_rate=0.99))
        for dht in (bare, faulty):
            dht.put("k", "v")
        non_owner = next(p for p in bare.peers() if p != bare.peer_of("k"))
        assert bare.get_direct(non_owner, "k") is None
        assert faulty.get_direct(non_owner, "k") is None
        assert faulty.stats.faults_stale == 0

    def test_stale_fall_through_of_a_batch_stays_one_round(self):
        """Stale draws on once-written keys ride the live sub-batch:
        the same one round and round time as a fault-free batch."""
        keys = [f"k{i}" for i in range(10)]
        costs = []
        for rate in (0.0, 0.99):
            chord = ChordDht.build(8)
            faulty = FaultyDht(chord, FaultPlan(0, stale_rate=rate))
            with faulty.suspended():
                faulty.put_many([(key, key) for key in keys])
            rounds, now = chord.network.stats.rounds, chord.network.clock.now
            assert faulty.get_many_outcomes(keys) == keys
            costs.append((
                chord.network.stats.rounds - rounds,
                chord.network.clock.now - now,
            ))
        assert costs[1] == costs[0]
        assert costs[0][0] == 1

    def test_stale_tracks_rewrite_local(self):
        faulty = FaultyDht(LocalDht(8), FaultPlan(0, stale_rate=0.99))
        with faulty.suspended():
            faulty.put("k", "old")
        faulty.rewrite_local("k", "new")
        assert faulty.get("k") == "old"

    def test_suspended_consumes_no_draws(self):
        plan = FaultPlan(4, drop_rate=0.3)
        twin = FaultPlan(4, drop_rate=0.3)
        faulty = FaultyDht(LocalDht(8), plan)
        with faulty.suspended():
            for i in range(50):
                faulty.put(f"k{i}", i)
        assert [plan.decide("get", "k") for _ in range(50)] == [
            twin.decide("get", "k") for _ in range(50)
        ]

    def test_one_faulted_slot_does_not_poison_the_batch(self):
        faulty = FaultyDht(
            LocalDht(8), FaultPlan(0, dead_keys=["k3"])
        )
        with faulty.suspended():
            for i in range(6):
                faulty.put(f"k{i}", i)
        outcomes = faulty.get_many_outcomes(
            [f"k{i}" for i in range(6)]
        )
        assert isinstance(outcomes[3], BatchFailure)
        for i in (0, 1, 2, 4, 5):
            assert outcomes[i] == i
        assert faulty.stats.faults_dropped == 1


class TestZeroFaultEquivalence:
    """A zero-rate plan must be an exact no-op on every substrate."""

    @pytest.mark.parametrize(
        "make", [lambda: LocalDht(8), lambda: ChordDht.build(8)],
        ids=["local", "chord"],
    )
    def test_bit_identical_behaviour_and_meters(self, make):
        plain = make()
        wrapped = FaultyDht(make(), FaultPlan(0))
        points = uniform_points(150)
        results = []
        for dht in (plain, wrapped):
            index = MLightIndex(dht, CONFIG)
            for point in points:
                index.insert(point)
            result = index.range_query(((0.2, 0.2), (0.8, 0.8)))
            assert result.complete
            assert result.unresolved == ()
            results.append(
                (sorted(r.key for r in result.records), result.lookups,
                 result.rounds, result.batch_rounds)
            )
        assert results[0] == results[1]
        assert plain.stats.snapshot() == wrapped.stats.snapshot()
        assert wrapped.stats.faults_injected == 0


class TestRetryBackoff:
    def dead_stack(self, **kwargs):
        faulty = FaultyDht(
            LocalDht(8), FaultPlan(0, dead_keys=["victim"])
        )
        with faulty.suspended():
            faulty.put("victim", 1)
        return faulty, RetryingDht(faulty, **kwargs)

    def test_backoff_advances_simulated_clock(self):
        faulty, dht = self.dead_stack(
            attempts=3, backoff_base=0.1, backoff_factor=2.0
        )
        before = faulty.clock.now
        with pytest.raises(FaultInjectedError):
            dht.get("victim")
        # Waits before retries 1 and 2: 0.1 * 2**0 + 0.1 * 2**1.
        assert faulty.clock.now == pytest.approx(before + 0.3)
        assert dht.stats.backoff_waits == 2
        assert dht.stats.retries == 2
        assert dht.backoff_time == pytest.approx(0.3)

    def test_jitter_is_seeded_and_reproducible(self):
        times = []
        for _ in range(2):
            _, dht = self.dead_stack(
                attempts=4, backoff_base=0.1, jitter=0.05, seed=13
            )
            with pytest.raises(FaultInjectedError):
                dht.get("victim")
            times.append(dht.backoff_time)
        assert times[0] == times[1]
        _, other = self.dead_stack(
            attempts=4, backoff_base=0.1, jitter=0.05, seed=14
        )
        with pytest.raises(FaultInjectedError):
            other.get("victim")
        assert other.backoff_time != times[0]

    def test_deadline_caps_the_attempt_budget(self):
        # Backoff schedule 1, 2, 4, ... against a deadline of 2.5:
        # only the first wait fits, so exactly one retry happens.
        faulty, dht = self.dead_stack(
            attempts=10, backoff_base=1.0, deadline=2.5
        )
        with pytest.raises(FaultInjectedError):
            dht.get("victim")
        assert dht.stats.retries == 1
        assert faulty.clock.now == pytest.approx(1.0)

    def test_batch_retries_respect_deadline(self):
        faulty, dht = self.dead_stack(
            attempts=10, backoff_base=1.0, deadline=2.5
        )
        outcomes = dht.get_many_outcomes(["victim"])
        assert isinstance(outcomes[0], BatchFailure)
        assert dht.stats.retries == 1

    def test_zero_base_keeps_immediate_retries(self):
        faulty, dht = self.dead_stack(attempts=3)
        before = faulty.clock.now
        with pytest.raises(FaultInjectedError):
            dht.get("victim")
        assert faulty.clock.now == before
        assert dht.stats.backoff_waits == 0
        assert dht.stats.retries == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backoff_base": -0.1},
            {"backoff_factor": 0.5},
            {"jitter": -1.0},
            {"deadline": 0.0},
        ],
    )
    def test_invalid_budgets_rejected(self, kwargs):
        with pytest.raises(ReproError):
            RetryingDht(LocalDht(8), **kwargs)

    def test_retries_recover_from_random_faults(self):
        """Transient injected faults are absorbed by the retry budget."""
        faulty = FaultyDht(LocalDht(8), FaultPlan(1, drop_rate=0.2))
        dht = RetryingDht(faulty, attempts=8, backoff_base=0.01)
        index = MLightIndex(dht, CONFIG)
        points = uniform_points(200)
        for point in points:
            index.insert(point)
        result = index.range_query(((0.0, 0.0), (1.0, 1.0)))
        assert result.complete
        assert len(result.records) == 200
        assert dht.stats.faults_injected > 0
        assert dht.stats.retries > 0


class TestDegradedQueries:
    """Probes dead beyond the retry budget degrade, never raise."""

    def build(self, *, batched, cache=None):
        """*batched* False puts the engine behind the per-key
        reference: each probe its own (retried) ``get``."""
        faulty = FaultyDht(LocalDht(8), FaultPlan(0))
        dht = RetryingDht(faulty, attempts=2)
        index = MLightIndex(dht, CONFIG)
        points = uniform_points(250)
        for point in points:
            index.insert(point)
        engine = RangeQueryEngine(
            dht if batched else PerKeyDht(dht),
            CONFIG.dims, CONFIG.max_depth, cache=cache,
        )
        return faulty, index, engine, points

    @pytest.mark.parametrize("batched", [False, True])
    def test_dead_bucket_yields_partial_result(self, batched):
        faulty, index, engine, points = self.build(batched=batched)
        whole = ((0.0, 0.0), (1.0, 1.0))
        full = engine.query(whole)
        assert full.complete and len(full.records) == 250

        victim_bucket = index.lookup((0.5, 0.5)).bucket
        faulty.plan.dead_keys = frozenset(
            {bucket_key(naming_function(victim_bucket.label, CONFIG.dims))}
        )
        partial = engine.query(whole)
        assert not partial.complete
        assert len(partial.unresolved) >= 1
        # The dead bucket's own records are necessarily lost (its key
        # is the only way to read them).  More may be: the dead key
        # also names every ancestor target the victim is the corner
        # leaf of, and a failed ancestor probe loses that whole
        # subquery.
        missing = {r.key for r in full.records} - {
            r.key for r in partial.records
        }
        assert {r.key for r in victim_bucket.records} <= missing
        # The contract: every lost record is accounted for by an
        # enumerated unresolved region — coverage loss is never silent.
        def covered(point):
            return any(
                all(
                    low <= value <= high
                    for low, high, value in zip(
                        region.lows, region.highs, point
                    )
                )
                for region in partial.unresolved
            )
        assert all(covered(key) for key in missing)
        # And nothing returned is wrong: partial records are a subset.
        assert {r.key for r in partial.records} <= {
            r.key for r in full.records
        }

    @pytest.mark.parametrize("batched", [False, True])
    def test_same_dead_key_same_partial_result(self, batched):
        runs = []
        for _ in range(2):
            faulty, index, engine, _ = self.build(batched=batched)
            faulty.plan.dead_keys = frozenset(
                {leaf_key(index, (0.5, 0.5))}
            )
            result = engine.query(((0.0, 0.0), (1.0, 1.0)))
            runs.append(
                (sorted(r.key for r in result.records),
                 result.unresolved, result.lookups, result.rounds,
                 faulty.stats.snapshot())
            )
        assert runs[0] == runs[1]

    def test_random_faults_beyond_budget_never_raise(self):
        faulty = FaultyDht(
            LocalDht(8), FaultPlan(2, drop_rate=0.25, timeout_rate=0.1)
        )
        dht = RetryingDht(faulty, attempts=2)
        index = MLightIndex(dht, CONFIG)
        with faulty.suspended():
            for point in uniform_points(250):
                index.insert(point)
        engine = RangeQueryEngine(dht, CONFIG.dims, CONFIG.max_depth)
        with faulty.suspended():
            full = {
                r.key
                for r in engine.query(((0.0, 0.0), (1.0, 1.0))).records
            }
        incomplete = 0
        for _ in range(20):
            result = engine.query(((0.0, 0.0), (1.0, 1.0)))
            got = {r.key for r in result.records}
            # Partial answers lose coverage, never correctness.
            assert got <= full
            if not result.complete:
                incomplete += 1
                assert result.unresolved
            else:
                assert got == full
        assert incomplete > 0  # the budget really was exceeded

    def test_knn_degrades_with_complete_flag(self):
        faulty, index, engine, points = self.build(batched=True)
        exact = index.knn((0.5, 0.5), 5)
        assert exact.complete
        faulty.plan.dead_keys = frozenset(
            {leaf_key(index, (0.5, 0.5))}
        )
        degraded = index.knn((0.5, 0.5), 5)
        assert not degraded.complete
        # The neighbours listed are real records at true distances.
        keys = {p for p in points}
        for neighbor in degraded.neighbors:
            assert tuple(neighbor.record.key) in keys


class TestDeadHintEviction:
    def test_dead_hint_is_forgotten(self):
        """A cache hint whose peer is unreachable must be evicted, not
        re-proposed to every subsequent lookup in the region."""
        cache = LeafCache()
        faulty = FaultyDht(LocalDht(8), FaultPlan(0))
        dht = RetryingDht(faulty, attempts=2)
        index = MLightIndex(dht, CONFIG, cache=cache)
        for point in uniform_points(250):
            index.insert(point)
        point = (0.5, 0.5)
        index.lookup(point)  # warm the cache with the covering leaf
        hits_before = dht.stats.cache_hits
        assert index.lookup(point).lookups == 1  # hinted fast path
        assert dht.stats.cache_hits == hits_before + 1

        faulty.plan.dead_keys = frozenset({leaf_key(index, point)})
        # The covering leaf itself is dead, so the lookup cannot
        # succeed — but it must evict the dead hint on the way out.
        with pytest.raises(NodeUnreachableError):
            index.lookup(point)

        faulty.plan.dead_keys = frozenset()
        misses_before = dht.stats.cache_misses
        result = index.lookup(point)
        # No hint proposed: the dead one is gone, so this was a cold
        # binary search that re-warms the cache.
        assert dht.stats.cache_misses == misses_before + 1
        assert result.bucket.covers(point)
        assert index.lookup(point).lookups == 1  # warm again

    def test_degraded_range_query_evicts_dead_hints(self):
        cache = LeafCache()
        faulty = FaultyDht(LocalDht(8), FaultPlan(0))
        dht = RetryingDht(faulty, attempts=2)
        index = MLightIndex(dht, CONFIG, cache=cache)
        for point in uniform_points(250):
            index.insert(point)
        label = index.lookup((0.5, 0.5)).bucket.label
        assert label in cache
        faulty.plan.dead_keys = frozenset(
            {bucket_key(naming_function(label, CONFIG.dims))}
        )
        engine = RangeQueryEngine(
            dht, CONFIG.dims, CONFIG.max_depth, cache=cache
        )
        result = engine.query(((0.0, 0.0), (1.0, 1.0)))
        assert not result.complete


class TestMergeIsOptionalMaintenance:
    """A delete that removed its record says so: when the merge that
    would follow cannot reach the sibling, the cascade ends
    (``merge_skipped``) and the tree stays as it was, valid."""

    CONFIG = IndexConfig(dims=2, split_threshold=4, merge_threshold=2)

    def before_a_merging_delete(self, dht, seed):
        """An index over *dht* holding twelve points, deleted from until
        the next delete would merge: ``(index, that victim, the key of
        the sibling its merge probes)``."""
        index = MLightIndex(dht, self.CONFIG, tracer=Tracer())
        points = uniform_points(12, seed=seed)
        for point in points:
            index.insert(point)
        for victim in points:
            leaf = index.lookup(victim).bucket
            homes = merge_homes(leaf.label, 2)
            sibling_key = bucket_key(homes.sibling_name)
            other = dht.peek(sibling_key)
            if other.label == homes.sibling and index.strategy.should_merge(
                leaf.load - 1, other.load
            ):
                return index, victim, sibling_key
            assert index.delete(victim)
        raise AssertionError("no delete of the points merges")

    def deletes_without_merging(self, index, victim) -> bool:
        """False when even the lookup needs the unreachable peer (the
        caller tries another world); else the delete must succeed."""
        try:
            index.lookup(victim)
        except NodeUnreachableError:
            return False
        leaves, records = index.tree_size(), index.total_records()
        index.tracer.clear()
        assert index.delete(victim) is True
        assert index.delete(victim) is False  # gone, and said so once
        assert index.total_records() == records - 1
        assert index.tree_size() == leaves
        index.check_invariants()
        events = [
            event["name"]
            for span in index.tracer.spans for event in span.events
        ]
        assert "merge_skipped" in events and "merge" not in events
        return True

    def test_unreachable_sibling_ends_the_cascade(self):
        for seed in range(20):
            local = LocalDht(8)
            plain, victim, sibling_key = self.before_a_merging_delete(
                local, seed
            )
            index = MLightIndex(
                FaultyDht(local, FaultPlan(dead_keys={sibling_key})),
                self.CONFIG, tracer=Tracer(),
            )
            if not self.deletes_without_merging(index, victim):
                continue
            # The outage over, a later delete in that leaf merges as usual.
            leaves = plain.tree_size()
            rest = [
                record.key for bucket in plain.buckets()
                for record in bucket.records
            ]
            assert all(plain.delete(point) for point in rest)
            assert plain.tree_size() < leaves
            plain.check_invariants()
            return
        raise AssertionError("no seed keeps the lookup off the sibling")

    def test_failed_service_peer_ends_the_cascade(self):
        for seed in range(20):
            with ServiceDht(8) as dht:
                index, victim, sibling_key = self.before_a_merging_delete(
                    dht, seed
                )
                dht.fail(dht.peer_of(sibling_key))
                if self.deletes_without_merging(index, victim):
                    return
        raise AssertionError("no seed keeps the lookup off the sibling")
