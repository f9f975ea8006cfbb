"""Churn-driver tests: weight validation, crash paths, replication.

``run_churn`` is substrate-generic — any overlay exposing ``join``/
``leave``/``fail`` — and repairs replicas between events when the
overlay maintains them.  The crash paths (``fail_weight > 0``) are
exercised on all three routed overlays, and the replication regression
pins the key guarantee: a replicated Chord ring survives any single
peer crash with no data loss.
"""

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import ReproError
from repro.common.rng import make_rng
from repro.core.index import MLightIndex
from repro.dht.chord import ChordDht
from repro.dht.churn import generate_schedule, run_churn
from repro.dht.kademlia import KademliaDht
from repro.dht.pastry import PastryDht

OVERLAYS = {
    "chord": lambda: ChordDht.build(12),
    "kademlia": lambda: KademliaDht.build(12),
    "pastry": lambda: PastryDht.build(12),
}


def overlay(name):
    dht = OVERLAYS[name]()
    for index in range(60):
        dht.put(f"key-{index}", index)
    return dht


class TestScheduleValidation:
    @pytest.mark.parametrize("arm", ["join", "leave", "fail"])
    def test_negative_weight_rejected(self, arm):
        weights = {
            "join_weight": 1.0, "leave_weight": 1.0, "fail_weight": 1.0
        }
        weights[f"{arm}_weight"] = -0.5
        with pytest.raises(ReproError, match=f"{arm}_weight"):
            generate_schedule(10, **weights)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ReproError, match="positive"):
            generate_schedule(10, 0.0, 0.0, 0.0)

    def test_deterministic_by_seed(self):
        a = generate_schedule(40, 1.0, 1.0, 1.0, seed=5)
        assert a == generate_schedule(40, 1.0, 1.0, 1.0, seed=5)
        assert a != generate_schedule(40, 1.0, 1.0, 1.0, seed=6)
        assert set(a) == {"join", "leave", "fail"}

    def test_zero_arm_never_drawn(self):
        kinds = generate_schedule(40, 1.0, 1.0, 0.0, seed=1)
        assert "fail" not in kinds


class TestCrashChurnAcrossOverlays:
    """fail_weight > 0 runs — with data loss allowed, never errors."""

    @pytest.mark.parametrize("name", sorted(OVERLAYS))
    def test_mixed_churn_with_crashes(self, name):
        dht = overlay(name)
        report = run_churn(
            dht, 10, join_weight=1, leave_weight=1, fail_weight=1,
            seed=3,
        )
        assert len(report.events) > 0
        assert any(e.kind == "fail" for e in report.events)
        assert 0.0 <= report.survival_ratio <= 1.0
        # The overlay stays operational after crashes: new writes and
        # reads route correctly.
        dht.put("post-churn", "alive")
        assert dht.get("post-churn") == "alive"

    @pytest.mark.parametrize("name", sorted(OVERLAYS))
    def test_graceful_churn_loses_nothing(self, name):
        dht = overlay(name)
        report = run_churn(
            dht, 8, join_weight=1, leave_weight=1, fail_weight=0,
            seed=2,
        )
        assert report.survival_ratio == 1.0
        for index in range(60):
            assert dht.get(f"key-{index}") == index

    @pytest.mark.parametrize("name", sorted(OVERLAYS))
    def test_crash_only_churn(self, name):
        dht = overlay(name)
        report = run_churn(
            dht, 4, join_weight=0, leave_weight=0, fail_weight=1,
            seed=7, min_peers=4,
        )
        assert all(e.kind == "fail" for e in report.events)
        assert len(dht.peers()) >= 4


class TestReplicatedChurnSurvival:
    def test_single_crashes_lose_nothing_with_replication(self):
        """The repair-between-events regression: replication >= 2 must
        survive a whole burst of (one-at-a-time) crashes with every
        key intact, because the replica invariant is restored between
        consecutive crashes."""
        dht = ChordDht.build(12, replication=2)
        for index in range(60):
            dht.put(f"key-{index}", index)
        report = run_churn(
            dht, 8, join_weight=0.5, leave_weight=0.5, fail_weight=2,
            seed=9,
        )
        assert sum(1 for e in report.events if e.kind == "fail") >= 2
        assert report.repairs > 0  # repair really ran between events
        assert report.survival_ratio == 1.0
        for index in range(60):
            assert dht.get(f"key-{index}") == index

    def test_replication_three(self):
        dht = ChordDht.build(10, replication=3)
        for index in range(40):
            dht.put(f"key-{index}", index)
        report = run_churn(
            dht, 6, join_weight=0, leave_weight=0, fail_weight=1,
            seed=4,
        )
        assert any(e.kind == "fail" for e in report.events)
        assert report.survival_ratio == 1.0

    def test_unreplicated_crashes_may_lose_keys(self):
        """Contrast case: replication 1 has nothing to repair from."""
        dht = ChordDht.build(12, replication=1)
        for index in range(60):
            dht.put(f"key-{index}", index)
        report = run_churn(
            dht, 6, join_weight=0, leave_weight=0, fail_weight=1,
            seed=9,
        )
        assert report.repairs == 0
        assert report.survival_ratio < 1.0


class TestJoinUnderAnIndex:
    @pytest.mark.parametrize("joiner", ["chord-0008", "chord-late"])
    def test_inserts_right_after_a_join_find_their_leaves(self, joiner):
        """The joiner takes its key range from its successor; until the
        predecessor routes that range to the joiner, a probe for a
        handed-off leaf reads nothing.  ``join`` converges the ring
        itself, so the client's next inserts need no ``stabilize_all``."""
        dht = ChordDht.build(8)
        config = IndexConfig(dims=2, split_threshold=10, merge_threshold=5)
        index = MLightIndex(dht, config)
        rng = make_rng(0)
        for _ in range(300):
            index.insert((rng.random(), rng.random()))
        dht.join(joiner)
        for _ in range(200):
            index.insert((rng.random(), rng.random()))
        assert index.total_records() == 500
        assert len(dht.node(joiner).store)
        index.check_invariants()
