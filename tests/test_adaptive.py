"""Adaptive read plane (E13 tentpole): detector, shortcuts, replicas,
the ``get_direct`` seam, and the interplay with the client leaf cache.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.adaptive import (
    AdaptiveConfig,
    AdaptiveDht,
    HotspotDetector,
    ReplicaDirectory,
    is_replica_key,
    primary_of,
    replica_key,
    replica_keys,
)
from repro.common.config import IndexConfig
from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.rng import make_rng
from repro.core.bulkload import bulk_load
from repro.core.cache import LeafCache
from repro.core.index import MLightIndex
from repro.datasets.synthetic import uniform_points
from repro.dht.chord import ChordDht
from repro.dht.faults import FaultPlan, FaultyDht
from repro.dht.localhash import LocalDht
from repro.dht.retry import RetryingDht
from repro.workloads.queries import uniform_range_queries
from repro.workloads.traces import request_trace, zipf_sampler


# ----------------------------------------------------------------------
# Satellite 1: Zipfian sampling
# ----------------------------------------------------------------------


def test_zipf_sampler_zero_skew_is_uniform_bit_identical():
    draws, reference = make_rng(42), make_rng(42)
    sample = zipf_sampler(100, 0.0, draws)
    assert [sample() for _ in range(200)] == [
        reference.randrange(100) for _ in range(200)
    ]


def test_zipf_sampler_concentrates_on_low_ranks():
    sample = zipf_sampler(1000, 1.1, make_rng(7))
    ranks = [sample() for _ in range(4000)]
    assert all(0 <= rank < 1000 for rank in ranks)
    head = sum(1 for rank in ranks if rank == 0)
    # Zipf(1.1) over 1000 ranks gives rank 0 ~13% of the draws.
    assert head > 0.05 * len(ranks)
    assert head > 20 * max(1, sum(1 for rank in ranks if rank == 500))
    # Deterministic under a fixed seed.
    again = zipf_sampler(1000, 1.1, make_rng(7))
    assert [again() for _ in range(4000)] == ranks


def test_zipf_sampler_rejects_negative_skew():
    with pytest.raises(ReproError):
        zipf_sampler(10, -0.1, make_rng(0))


def test_request_trace_skew_targets_hot_keys():
    points = uniform_points(200, dims=2, seed=0)
    trace = request_trace(
        points, 600, lookup_fraction=1.0, range_fraction=0.0,
        insert_fraction=0.0, skew=1.5, seed=3,
    )
    hits = [operation.key for operation in trace]
    assert hits.count(points[0]) > 10 * max(1, hits.count(points[150]))
    # skew=0 stays on the uniform path and the pre-skew trace shape.
    uniform = request_trace(points, 600, skew=0.0, seed=3)
    legacy = request_trace(points, 600, seed=3)
    assert uniform == legacy


# ----------------------------------------------------------------------
# Hotspot detection
# ----------------------------------------------------------------------


def _detector(window_samples=2, hot_share=0.5, min_reads=4):
    counts: dict[str, int] = {}
    return counts, HotspotDetector(
        counts,
        window_samples=window_samples,
        hot_share=hot_share,
        min_reads=min_reads,
    )


def test_detector_flags_hot_and_decays():
    counts, detector = _detector()
    counts.update({"ml:a": 10, "ml:b": 1})
    hot = detector.sample()
    assert "ml:a" in hot and "ml:b" not in hot
    assert detector.share("ml:a") > 0.8
    # Traffic stops: once the window slides past the burst, nothing is
    # hot any more.
    detector.sample()
    assert detector.sample() == frozenset()
    assert detector.window_reads == 0


def test_detector_min_reads_gates_noise():
    counts, detector = _detector(min_reads=100)
    counts["ml:a"] = 10
    assert detector.sample() == frozenset()


# ----------------------------------------------------------------------
# Replica naming and directory
# ----------------------------------------------------------------------


def test_replica_naming_round_trip():
    key = "ml:0110"
    copies = replica_keys(key, 2)
    assert copies == ["ml:0110#r1", "ml:0110#r2"]
    assert all(is_replica_key(copy) for copy in copies)
    assert not is_replica_key(key)
    assert all(primary_of(copy) == key for copy in copies)
    assert replica_key(key, 3) == "ml:0110#r3"


def test_replica_directory_pick_spreads_and_is_seeded():
    directory = ReplicaDirectory(seed=5)
    assert directory.pick("k") == "k"  # unreplicated keys pass through
    directory.add("k", 2)
    picks = [directory.pick("k") for _ in range(60)]
    assert set(picks) == {"k", "k#r1", "k#r2"}
    again = ReplicaDirectory(seed=5)
    again.add("k", 2)
    assert [again.pick("k") for _ in range(60)] == picks
    assert directory.drop("k") == 2
    assert directory.pick("k") == "k"
    assert directory.drop("k") == 0


# ----------------------------------------------------------------------
# The plane over a raw substrate
# ----------------------------------------------------------------------

#: Aggressive tuning so a handful of reads exercises every path.
FAST = AdaptiveConfig(
    sample_every=8, window_samples=2, hot_share=0.3, min_window_reads=4,
    max_replicas=2, cool_windows=2, shortcut_capacity=16, learn_after=1,
)


def test_plane_promotes_demotes_and_filters_items():
    inner = LocalDht(8)
    plane = AdaptiveDht(inner, FAST)
    plane.put("ml:00", "hot-value")
    plane.put("ml:01", "cold-value")
    for _ in range(16):
        assert plane.get("ml:00") == "hot-value"
    assert plane.replicas.count("ml:00") == 2
    assert plane.adaptive_stats.promotions == 1
    raw_keys = {key for key, _ in inner.items()}
    assert set(replica_keys("ml:00", 2)) <= raw_keys
    # The plane's view hides its private replica copies.
    assert {key for key, _ in plane.items()} == {"ml:00", "ml:01"}

    # Writes refresh the copies synchronously: a replica read after an
    # update must see the new value.
    plane.put("ml:00", "updated")
    values = {plane.get("ml:00") for _ in range(12)}
    assert values == {"updated"}
    assert plane.adaptive_stats.replica_reads > 0

    # Traffic moves elsewhere; after cool_windows cold samples the key
    # decays back to K=0 and the copies are gone.
    for _ in range(40):
        plane.get("ml:01")
    assert plane.replicas.count("ml:00") == 0
    assert plane.adaptive_stats.demotions >= 1
    raw_keys = {key for key, _ in inner.items()}
    assert not any(primary_of(k) == "ml:00" and is_replica_key(k)
                   for k in raw_keys)


def test_plane_learns_shortcuts_and_heals_lost_copies():
    inner = LocalDht(8)
    plane = AdaptiveDht(inner, FAST)
    plane.put("ml:00", "v")
    plane.get("ml:00")  # first routed read learns the owner
    assert plane.shortcuts.get("ml:00") == inner.peer_of("ml:00")
    plane.get("ml:00")
    assert plane.adaptive_stats.shortcut_hits >= 1

    # Promote, then silently lose one copy: the replica read heals —
    # demote plus a primary answer, never a None.
    for _ in range(16):
        plane.get("ml:00")
    assert plane.replicas.count("ml:00") == 2
    for copy in replica_keys("ml:00", 2):
        inner.remove(copy)
    assert all(plane.get("ml:00") == "v" for _ in range(12))
    assert plane.adaptive_stats.replica_heals >= 1
    # The key may legitimately be re-promoted (it is still hot); any
    # copies back on the substrate must hold the healed value.
    for copy in replica_keys("ml:00", plane.replicas.count("ml:00")):
        assert inner.peek(copy) == "v"


def test_put_many_of_a_one_shot_iterable_refreshes_replicas():
    """The batch write reaches the refresh loop as a list, so an
    iterator is not exhausted before the copies are rewritten."""
    plane = AdaptiveDht(LocalDht(8), AdaptiveConfig(
        sample_every=1, window_samples=1, hot_share=0.01,
        min_window_reads=1, max_replicas=2, shortcut_capacity=0,
    ))
    plane.put("ml:#01", "old")
    for _ in range(200):
        plane.get("ml:#01")
    assert plane.replicas.count("ml:#01") == 2
    plane.put_many(iter([("ml:#01", "new")]))
    assert {plane.get("ml:#01") for _ in range(40)} == {"new"}


def test_plane_remove_tears_replicas_down():
    inner = LocalDht(8)
    plane = AdaptiveDht(inner, FAST)
    plane.put("ml:00", "v")
    for _ in range(16):
        plane.get("ml:00")
    assert plane.replicas.count("ml:00") == 2
    assert plane.remove("ml:00") == "v"
    assert plane.replicas.count("ml:00") == 0
    assert not any(is_replica_key(key) for key, _ in inner.items())
    assert plane.shortcuts.get("ml:00") is None


# ----------------------------------------------------------------------
# Wrapper order: a retry wrapper outside the plane changes nothing
# ----------------------------------------------------------------------


def stack(outer: str, config: AdaptiveConfig):
    """``(facade, plane)``: the plane over a retry wrapper, or a retry
    wrapper over the plane, on one fresh substrate."""
    if outer == "plane":
        plane = AdaptiveDht(RetryingDht(LocalDht(8)), config)
        return plane, plane
    plane = AdaptiveDht(LocalDht(8), config)
    return RetryingDht(plane), plane


@pytest.mark.parametrize("outer", ["plane", "retry"])
def test_batched_reads_are_counted_under_either_wrapper_order(outer):
    dht, plane = stack(outer, replace(FAST, sample_every=1000))
    keys = [f"ml:{slot}" for slot in range(4)]
    dht.put_many([(key, key) for key in keys])
    assert dht.get_many_outcomes(keys) == keys
    assert dht.get(keys[0]) == keys[0]
    assert plane.adaptive_stats.reads == 5
    assert plane.read_counts() == {keys[0]: 2, keys[1]: 1, keys[2]: 1,
                                   keys[3]: 1}


@pytest.mark.parametrize("outer", ["plane", "retry"])
def test_batched_writes_refresh_replicas_under_either_wrapper_order(outer):
    dht, plane = stack(outer, FAST)
    dht.put("ml:0", "v1")
    plane._promote("ml:0")
    assert plane.replicas.count("ml:0") == 2
    dht.put_many([("ml:0", "v2")])
    for copy in replica_keys("ml:0", 2):
        assert plane.inner.peek(copy) == "v2"
    assert {dht.get("ml:0") for _ in range(12)} == {"v2"}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 21: FaultyDht.ask sends a single GET past the "
    "adaptive plane under it, so the read is not counted",
)
def test_a_single_read_under_a_fault_wrapper_is_counted():
    plane = AdaptiveDht(LocalDht(8), replace(FAST, sample_every=1000))
    dht = FaultyDht(plane, FaultPlan(seed=0))
    dht.put("ml:0", "v")
    assert dht.get("ml:0") == "v"
    assert plane.adaptive_stats.reads == 1


# ----------------------------------------------------------------------
# get_direct across substrates
# ----------------------------------------------------------------------


def test_get_direct_local_semantics_and_metering():
    dht = LocalDht(8)
    dht.put("k", 42)
    owner = dht.peer_of("k")
    before = dht.stats.snapshot()
    assert dht.get_direct(owner, "k") == 42
    after = dht.stats.snapshot()
    assert after["lookups"] == before["lookups"] + 1
    assert after["gets"] == before["gets"] + 1
    # A peer that does not hold the key answers None (a stale shortcut
    # outcome), an unknown peer is unreachable (a dead one).
    other = next(peer for peer in dht.peers() if peer != owner)
    assert dht.get_direct(other, "k") is None
    with pytest.raises(NodeUnreachableError):
        dht.get_direct("no-such-peer", "k")


def test_get_direct_chord_and_retry_wrapper():
    dht = ChordDht.build(4)
    dht.put("ml:demo", "v")
    owner = dht.lookup("ml:demo")
    assert dht.get_direct(owner, "ml:demo") == "v"
    wrapped = RetryingDht(LocalDht(4), attempts=2)
    wrapped.put("k", 1)
    assert wrapped.get_direct(wrapped.peer_of("k"), "k") == 1


# ----------------------------------------------------------------------
# Index integration: config plumbing and answer equivalence
# ----------------------------------------------------------------------


def test_index_config_adaptive_validation_and_none_passthrough():
    with pytest.raises(ReproError):
        IndexConfig(adaptive=42)
    IndexConfig(adaptive=AdaptiveConfig())  # accepted
    dht = LocalDht(4)
    config = IndexConfig(dims=2, split_threshold=10, merge_threshold=5)
    bulk_load(dht, uniform_points(60, dims=2, seed=0), config)
    index = MLightIndex(dht, config)
    # adaptive=None builds no plane: the index talks to the very same
    # substrate object, so the run is bit-equivalent to a pre-adaptive
    # build by construction.
    assert index.adaptive is None
    assert index.dht is dht


def test_adaptive_index_answers_match_baseline():
    points = uniform_points(400, dims=2, seed=7)
    base_config = IndexConfig(
        dims=2, split_threshold=10, merge_threshold=5, cache_capacity=8,
    )
    adaptive_config = replace(
        base_config,
        adaptive=AdaptiveConfig(
            sample_every=16, window_samples=2, hot_share=0.1,
            min_window_reads=8, max_replicas=2, cool_windows=2,
            shortcut_capacity=64, learn_after=1,
        ),
    )
    answers = {}
    for name, config in (("base", base_config), ("adaptive", adaptive_config)):
        dht = LocalDht(8)
        bulk_load(dht, points, config)
        index = MLightIndex(dht, config)
        sample = zipf_sampler(len(points), 1.2, make_rng(5))
        run = [
            index.lookup(points[sample()]).bucket.label
            for _ in range(300)
        ]
        for query in uniform_range_queries(8, 0.05, seed=11):
            result = index.range_query(query)
            run.append(tuple(sorted(record.key for record in result.records)))
        index.check_invariants()
        answers[name] = run
        if name == "adaptive":
            tallies = index.adaptive.adaptive_stats
            assert tallies.promotions > 0
            assert tallies.shortcut_hits > 0
    assert answers["base"] == answers["adaptive"]


# ----------------------------------------------------------------------
# Satellite 4: LeafCache + replication interplay
# ----------------------------------------------------------------------


def test_failed_replica_read_evicts_leaf_cache_hint(monkeypatch):
    adaptive = AdaptiveConfig(
        sample_every=4, window_samples=1, hot_share=0.5,
        min_window_reads=2, max_replicas=1, cool_windows=1000,
        shortcut_capacity=0, learn_after=99,
    )
    config = IndexConfig(
        dims=2, split_threshold=8, merge_threshold=4, cache_capacity=8,
        adaptive=adaptive,
    )
    dht = LocalDht(8)
    points = uniform_points(150, dims=2, seed=1)
    bulk_load(dht, points, config)
    index = MLightIndex(dht, config)
    plane = index.adaptive
    target = points[0]

    # Reads are spread deterministically at the first replica whenever
    # one exists, so the failure below is guaranteed to be a *replica*
    # read, not a lucky primary pick.
    monkeypatch.setattr(
        ReplicaDirectory,
        "pick",
        lambda self, key: replica_key(key, 1) if self.count(key) else key,
    )
    for _ in range(10):
        result = index.lookup(target)
    hot_label = result.bucket.label
    hot_keys = [
        key for key in plane.replicas.keys()
        if plane.inner.get(key) is not None
        and plane.inner.get(key).covers(target)
    ]
    assert len(hot_keys) == 1, "the target's leaf should be promoted"
    hot_key = hot_keys[0]
    assert hot_label in index.cache

    # Kill the replica's location: reads *and* writes of the copy key
    # raise, as they would for a dead peer (promotion against a dead
    # location must abort, not silently "succeed").
    inner = plane.inner
    real_get = type(inner).get.__get__(inner)
    real_put = type(inner).put.__get__(inner)
    dead = replica_key(hot_key, 1)

    def failing_get(key):
        if key == dead:
            raise NodeUnreachableError(dead)
        return real_get(key)

    def failing_put(key, value, *, records_moved=0):
        if key == dead:
            raise NodeUnreachableError(dead)
        return real_put(key, value, records_moved=records_moved)

    monkeypatch.setattr(inner, "get", failing_get)
    monkeypatch.setattr(inner, "put", failing_put)
    forgotten = []
    real_forget = LeafCache.forget

    def spying_forget(self, label):
        forgotten.append(label)
        return real_forget(self, label)

    monkeypatch.setattr(LeafCache, "forget", spying_forget)

    hits_before = dht.stats.snapshot()["cache_hits"]
    recovered = index.lookup(target)

    # The hinted probe hit the dead replica: the hint was evicted
    # (probe_failed), the key demoted, and the binary-search fallback
    # answered from the live primary — correct result, no cache hit.
    assert recovered.bucket.covers(target)
    assert hot_label in forgotten
    assert dht.stats.snapshot()["cache_hits"] == hits_before
    assert recovered.lookups > 1
    assert plane.replicas.count(hot_key) == 0
    assert plane.adaptive_stats.demotions >= 1
    # The recovery lookup re-observed the live leaf; the next lookup is
    # one cache-hinted probe against the primary again.
    follow_up = index.lookup(target)
    assert follow_up.lookups == 1
    assert dht.stats.snapshot()["cache_hits"] == hits_before + 1


def test_merge_tears_down_and_rehomes_replicas():
    adaptive = AdaptiveConfig(
        sample_every=4, window_samples=1, hot_share=0.4,
        min_window_reads=2, max_replicas=2, cool_windows=1000,
        shortcut_capacity=8, learn_after=1,
    )
    config = IndexConfig(
        dims=2, split_threshold=8, merge_threshold=6, cache_capacity=8,
        adaptive=adaptive,
    )
    dht = LocalDht(8)
    points = uniform_points(120, dims=2, seed=3)
    bulk_load(dht, points, config)
    index = MLightIndex(dht, config)
    plane = index.adaptive
    before = index.tree_size()

    target = points[0]
    for _ in range(10):
        index.lookup(target)
    assert plane.replicas.keys(), "skewed reads should promote a leaf"

    def raw_replica_keys():
        return {
            key for key, _ in plane.inner.items() if is_replica_key(key)
        }

    assert raw_replica_keys()

    # Delete everything: merges remove dead bucket keys (replica
    # teardown via the remove intercept) and rewrite each surviving
    # sibling in place (replica refresh via rewrite_local — Theorem 5
    # re-homes exactly one key per merge).
    for point in points:
        index.delete(point)
    index.check_invariants()
    assert index.tree_size() < before

    # No orphans and no leaks: every copy still on the substrate is
    # exactly accounted for by the directory.
    expected = set()
    for key in plane.replicas.keys():
        expected.update(replica_keys(key, plane.replicas.count(key)))
    assert raw_replica_keys() == expected

    # Whatever remains replicated still answers coherently.
    assert index.lookup(target).bucket.covers(target)


# ----------------------------------------------------------------------
# E13 experiment plumbing
# ----------------------------------------------------------------------


def test_skew_experiment_smoke():
    from repro.experiments import skew_experiment
    from repro.experiments.tables import render

    points = uniform_points(400, dims=2, seed=0)
    config = IndexConfig(dims=2, split_threshold=20, merge_threshold=10)
    samples = skew_experiment.run_skew_experiment(
        points, config, n_peers=4, n_ops=400, qps=0.5,
    )
    baseline, adaptive = samples
    assert (baseline.mode, adaptive.mode) == ("baseline", "adaptive")
    assert baseline.answers_digest == adaptive.answers_digest
    assert baseline.recall == 1.0 and adaptive.recall == 1.0
    assert baseline.measured == adaptive.measured > 0
    rendered = render(samples, "E13")
    assert "p99" in rendered and "adaptive" in rendered
    assert "shortcut hits" in skew_experiment.adaptive_tallies(samples)


_E13_SCRIPT = """
from repro.datasets import northeast_surrogate
from repro.experiments.catalogue import BY_KEY, run, table

entry = BY_KEY["e13"]
print(table(entry, run(entry, northeast_surrogate(12000))))
"""


def _render_e13(hash_seed: int) -> str:
    result = subprocess.run(
        [sys.executable, "-c", _E13_SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_e13_table_does_not_depend_on_the_hash_seed():
    """Promotion order decides replica placement and with it the
    queueing tail: it must not follow string-hash order."""
    assert _render_e13(0) == _render_e13(2)
