"""Tests for the dissemination plane: prefix multicast + continuous
range queries.

The headline properties:

* multicast returns the same answers at the same metered costs as
  the client engine — across all three overlays, with the engine's
  rounds batched and per key, on both the simulated and the asyncio
  service runtimes, and after the membership changed — while the
  initiator originates exactly **one** message per query;
* a continuous query keeps delivering through splits, merges, and (on
  a durable ring) a crash-restart cycle, each matching insert exactly
  once.
"""

import contextlib
import random
import tempfile

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import NodeUnreachableError, ReproError
from repro.common.geometry import Region, region_of_label
from repro.core.index import MLightIndex
from repro.core.naming import naming_function
from repro.dht.api import DhtDecorator
from repro.dht.chord import ChordDht
from repro.dht.kademlia import KademliaDht
from repro.dht.localhash import LocalDht
from repro.dht.pastry import PastryDht
from repro.mcast import (
    ContinuousQueryPlane,
    MulticastRuntime,
    ServiceContinuousPlane,
    ServiceMulticast,
    sub_key,
)
from repro.runtime import create_dht
from tests.conftest import PerKeyDht, brute_force_range

CONFIG = IndexConfig(
    dims=2, max_depth=14, split_threshold=10, merge_threshold=5
)

OVERLAYS = [
    ("chord", lambda: ChordDht.build(10)),
    ("kademlia", lambda: KademliaDht.build(10)),
    ("pastry", lambda: PastryDht.build(10)),
]


def build_over(dht, n_points=250, seed=0, config=CONFIG):
    index = MLightIndex(dht, config)
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(n_points)]
    for point in points:
        index.insert(point)
    return index, points


def random_queries(seed, count=6):
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        lows = (rng.random() * 0.7, rng.random() * 0.7)
        highs = (
            lows[0] + rng.random() * 0.3, lows[1] + rng.random() * 0.3
        )
        queries.append(Region(lows, highs))
    return queries


#: Stat counters allowed to differ between the client engine's
#: fan-out and multicast: ``hops`` (route length depends on the routing
#: start position), the multicast-only meters, and how the probes are
#: carried — the engine reads each leaf with a batched ``get``, a peer
#: reads its own bucket for free and forwards a batch of routes.
EXCLUDED = (
    "hops", "mcasts", "mcast_forwards", "gets", "batch_rounds", "batch_ops",
)


def comparable(snapshot):
    return {k: v for k, v in snapshot.items() if k not in EXCLUDED}


class TestMulticastEquivalence:
    """Multicast == client fan-out (the engine), answer for answer,
    cost for cost, on every simulated overlay."""

    @pytest.mark.parametrize(
        "factory", [f for _, f in OVERLAYS], ids=[n for n, _ in OVERLAYS]
    )
    def test_matches_fanout_on_every_meter(self, factory):
        dht = factory()
        index, points = build_over(dht)
        mcast = MulticastRuntime(dht, 2, CONFIG.max_depth)
        for query in random_queries(3):
            before = dht.stats.snapshot()
            fan_result = index.range_query(query)
            mid = dht.stats.snapshot()
            mc_result = mcast.query(query)
            after = dht.stats.snapshot()
            fan_delta = {k: mid[k] - before[k] for k in before}
            mc_delta = {k: after[k] - mid[k] for k in before}
            assert sorted(r.key for r in mc_result.records) == sorted(
                r.key for r in fan_result.records
            )
            assert mc_result.visited_leaves == fan_result.visited_leaves
            assert mc_result.rounds == fan_result.rounds
            assert comparable(mc_delta) == comparable(fan_delta)

    @pytest.mark.parametrize(
        "factory", [f for _, f in OVERLAYS], ids=[n for n, _ in OVERLAYS]
    )
    def test_matches_brute_force(self, factory):
        dht = factory()
        index, points = build_over(dht, seed=4)
        mcast = MulticastRuntime(dht, 2, CONFIG.max_depth)
        for query in random_queries(5):
            result = mcast.query(query)
            assert sorted(r.key for r in result.records) == (
                brute_force_range(points, query)
            )

    @pytest.mark.parametrize("execution", ["batched", "sequential"])
    def test_matches_engine_on_both_execution_planes(self, execution):
        """The client engine as the program runs it (rounds as batches)
        and behind the per-key reference (``sequential``)."""
        dht = ChordDht.build(10)
        client = dht if execution == "batched" else PerKeyDht(dht)
        index, points = build_over(client)
        mcast = MulticastRuntime(dht, 2, CONFIG.max_depth)
        for query in random_queries(7):
            engine_result = index.range_query(query)
            mc_result = mcast.query(query)
            assert sorted(r.key for r in mc_result.records) == sorted(
                r.key for r in engine_result.records
            )
            assert (
                mc_result.visited_leaves == engine_result.visited_leaves
            )
            assert mc_result.lookups == engine_result.lookups
            assert mc_result.rounds == engine_result.rounds

    def test_localdht_rejected(self):
        with pytest.raises(ReproError):
            MulticastRuntime(LocalDht(8), 2, 14)


class TestInitiatorMessages:
    """The tentpole bound: O(1) initiator-originated messages."""

    @pytest.mark.parametrize(
        "factory", [f for _, f in OVERLAYS], ids=[n for n, _ in OVERLAYS]
    )
    def test_one_initiator_message_per_query(self, factory):
        dht = factory()
        index, points = build_over(dht)
        mcast = MulticastRuntime(dht, 2, CONFIG.max_depth)
        query = Region((0.0, 0.0), (1.0, 1.0))
        before = dht.stats.snapshot()
        result = mcast.query(query)
        delta = {
            k: v - before[k] for k, v in dht.stats.snapshot().items()
        }
        # One initiator-originated message; every DHT-lookup the query
        # performed originated at a *peer* (a native forward), so the
        # fan-out's O(#branches) client messages collapse to O(1).
        assert delta["mcasts"] == 1
        assert delta["mcast_forwards"] == delta["lookups"]
        assert delta["lookups"] == len(result.visited_leaves)
        assert delta["lookups"] > 1  # the bound is non-vacuous

    def test_fanout_originates_one_message_per_branch(self):
        """The baseline the tentpole improves on: client fan-out (the
        engine) pays one client-originated probe per visited node."""
        dht = ChordDht.build(10)
        index, points = build_over(dht)
        query = Region((0.0, 0.0), (1.0, 1.0))
        before = dht.stats.snapshot()
        result = index.range_query(query)
        delta = {
            k: v - before[k] for k, v in dht.stats.snapshot().items()
        }
        assert delta["mcasts"] == 0
        assert delta["mcast_forwards"] == 0
        assert delta["lookups"] == len(result.visited_leaves) > 1


class TestMembershipChanges:
    """Agents follow the overlay: the node serving a subquery is the
    one live under that name when the message arrives, and a peer that
    joined is reached like any other."""

    WHOLE = Region((0.0, 0.0), (1.0, 1.0))

    def ring(self, tmp_path):
        """Chord, 8 durable peers, θ_split = 10, 300 points, and the
        runtime built before the membership changes."""
        dht = ChordDht.build(8, durability="log", data_dir=str(tmp_path))
        index, _ = build_over(dht, 300, seed=0)
        return dht, index, MulticastRuntime(dht, 2, CONFIG.max_depth)

    def insert_more(self, index):
        rng = random.Random(1)
        for _ in range(200):
            index.insert((rng.random(), rng.random()))

    def assert_answers_like_the_engine(self, index, mcast):
        engine = index.range_query(self.WHOLE)
        result = mcast.query(self.WHOLE)
        assert result.complete
        assert len(result.records) == len(engine.records) == 500
        assert sorted(r.key for r in result.records) == sorted(
            r.key for r in engine.records
        )
        assert result.visited_leaves == engine.visited_leaves
        assert (result.lookups, result.rounds) == (
            engine.lookups, engine.rounds
        )

    def test_crash_restart_of_the_fullest_peer(self, tmp_path):
        dht, index, mcast = self.ring(tmp_path)
        victim = max(
            dht.peers(), key=lambda name: len(dht.node(name).store)
        )
        dht.fail(victim)
        dht.restart(victim)
        self.insert_more(index)
        self.assert_answers_like_the_engine(index, mcast)

    def test_a_peer_that_joined(self, tmp_path):
        dht, index, mcast = self.ring(tmp_path)
        dht.join("chord-0008")
        self.insert_more(index)
        assert len(dht.node("chord-0008").store)  # it serves buckets
        self.assert_answers_like_the_engine(index, mcast)


class TestServiceMulticast:
    """The same equivalence spoken as MCAST wire frames."""

    @pytest.mark.parametrize("kind", ["asyncio", "tcp"])
    def test_matches_engine_over_the_service_runtime(self, kind):
        with create_dht(kind=kind, n_peers=8) as dht:
            index, points = build_over(dht, n_points=200)
            mcast = ServiceMulticast(dht, 2, CONFIG.max_depth)
            for query in random_queries(9, count=4):
                engine_result = index.range_query(query)
                mc_result = mcast.query(query)
                assert sorted(
                    r.key for r in mc_result.records
                ) == sorted(r.key for r in engine_result.records)
                assert (
                    mc_result.visited_leaves
                    == engine_result.visited_leaves
                )
                assert mc_result.lookups == engine_result.lookups
                assert mc_result.rounds == engine_result.rounds

    def test_one_initiator_frame(self):
        with create_dht(kind="asyncio", n_peers=8) as dht:
            index, points = build_over(dht, n_points=200)
            mcast = ServiceMulticast(dht, 2, CONFIG.max_depth)
            before = dht.stats.snapshot()
            result = mcast.query(Region((0.0, 0.0), (1.0, 1.0)))
            delta = {
                k: v - before[k]
                for k, v in dht.stats.snapshot().items()
            }
            assert delta["mcasts"] == 1
            assert delta["mcast_forwards"] == delta["lookups"]
            assert delta["lookups"] == len(result.visited_leaves) > 1

    def test_simulated_substrates_rejected(self):
        dht = ChordDht.build(4)
        with pytest.raises(ReproError):
            ServiceMulticast(dht, 2, 14)


REGION = Region((0.2, 0.2), (0.7, 0.7))


def in_region(points):
    return sorted(p for p in points if REGION.contains_point_closed(p))


class TestContinuousQueries:
    """Subscribe once; matching inserts arrive exactly once, through
    splits, merges, and churn."""

    def test_delivery_through_splits(self):
        dht = ChordDht.build(8)
        index, points = build_over(dht, n_points=60, seed=11)
        plane = ContinuousQueryPlane(index)
        subscriber = plane.subscribe(REGION)
        rng = random.Random(12)
        batch = [(rng.random(), rng.random()) for _ in range(120)]
        for point in batch:
            index.insert(point)
        assert sorted(subscriber.delivered_keys) == in_region(batch)
        # No duplicates even where split re-homing copied an entry
        # into both children.
        assert len(subscriber.delivered_keys) == len(
            set(subscriber.delivered_keys)
        )

    def test_delivery_through_merges(self):
        dht = ChordDht.build(8)
        index, points = build_over(dht, n_points=200, seed=13)
        plane = ContinuousQueryPlane(index)
        subscriber = plane.subscribe(REGION)
        for point in points[40:]:
            index.delete(point)
        assert subscriber.invalidations  # merges notified proactively
        extra = [(0.31, 0.33), (0.55, 0.61), (0.05, 0.95)]
        for point in extra:
            index.insert(point)
        assert sorted(subscriber.delivered_keys) == in_region(extra)

    def test_unsubscribe_stops_delivery(self):
        dht = ChordDht.build(8)
        index, points = build_over(dht, n_points=60, seed=14)
        plane = ContinuousQueryPlane(index)
        subscriber = plane.subscribe(REGION)
        plane.unsubscribe(subscriber)
        index.insert((0.5, 0.5))
        assert subscriber.delivered_keys == []

    def test_subscribe_meters_and_covered_set(self):
        dht = ChordDht.build(8)
        index, points = build_over(dht, n_points=80, seed=15)
        plane = ContinuousQueryPlane(index)
        before = dht.stats.subscribes
        plane.subscribe(REGION)
        assert dht.stats.subscribes == before + 1
        assert plane.covered
        from repro.common.geometry import query_overlaps_cell

        for label in plane.covered:
            cell = region_of_label(label, 2)
            assert query_overlaps_cell(REGION, cell)

    def test_exactly_once_through_crash_restart(self):
        with tempfile.TemporaryDirectory() as tmp:
            dht = ChordDht.build(10, durability="log", data_dir=tmp)
            index, points = build_over(dht, n_points=80, seed=16)
            plane = ContinuousQueryPlane(index)
            subscriber = plane.subscribe(REGION)
            delivered_before = list(subscriber.delivered_keys)
            # Crash the table owner of a covered leaf, then insert a
            # point inside that leaf during the downtime.
            queued = None
            for label in sorted(plane.covered):
                cell = region_of_label(label, 2)
                mid = tuple(
                    min(max((lo + hi) / 2, 0.2001), 0.6999)
                    for lo, hi in zip(cell.lows, cell.highs)
                )
                if not cell.contains_point(mid):
                    continue
                victim = dht.peer_of(sub_key(naming_function(label, 2)))
                dht.fail(victim)
                try:
                    index.insert(mid)
                except NodeUnreachableError:
                    dht.restart(victim)
                    continue
                if plane.pending:
                    queued = mid
                    break
                dht.restart(victim)
            assert queued is not None, "no covered leaf produced a queue"
            assert queued not in subscriber.delivered_keys
            dht.restart(victim)
            flushed = plane.flush_pending()
            assert flushed == 1
            assert not plane.pending
            delivered = subscriber.delivered_keys
            assert delivered.count(queued) == 1
            assert delivered[: len(delivered_before)] == delivered_before
            assert len(delivered) == len(set(delivered))

    @pytest.mark.parametrize("label", ["001000", "001010", "0011100"])
    def test_split_during_a_rendezvous_outage_keeps_the_subscription(
        self, label
    ):
        """The covered leaf splits while its table's owner is down: the
        re-homing is queued, the children's inserts queue behind it,
        and after the restart every matching insert — before, during
        and after the outage — has arrived exactly once."""
        with rendezvous_outage(seed=2, label=label) as (
            dht, index, plane, subscriber, victim,
        ):
            batch = points_in(label, 12)
            for point in batch[:6]:
                index.insert(point)
            assert label not in {b.label for b in index.buckets()}
            dht.restart(victim)
            assert plane.flush_pending() == 6
            assert not plane.pending
            for point in batch[6:]:
                index.insert(point)
            assert sorted(subscriber.delivered_keys) == sorted(batch)

    def test_split_after_the_restart_queues_behind_an_unflushed_insert(
        self,
    ):
        """A queued insert still needs its leaf's table as it was: a
        split of that leaf between the restart and the flush queues
        behind it instead of re-homing the table from under it."""
        label = "001010"
        with rendezvous_outage(seed=2, label=label) as (
            dht, index, plane, subscriber, victim,
        ):
            batch = points_in(label, 12)
            index.insert(batch[0])
            assert label in {b.label for b in index.buckets()}
            assert len(plane.pending) == 1
            dht.restart(victim)
            for point in batch[1:8]:
                index.insert(point)
            assert label not in {b.label for b in index.buckets()}
            assert plane.flush_pending() == 8
            assert not plane.pending
            for point in batch[8:]:
                index.insert(point)
            assert sorted(subscriber.delivered_keys) == sorted(batch)

    def test_replayed_split_meets_a_second_outage_and_stays_queued(self):
        """The origin's table is back but the moved child's owner is
        down: the replayed split raises before it rewrites anything, so
        it and everything behind it stay queued, in order."""
        config = IndexConfig(
            dims=2, max_depth=14, split_threshold=4, merge_threshold=2
        )
        dht = KeyOutageDht(LocalDht(8))
        index, _ = build_over(dht, 40, seed=2, config=config)
        plane = ContinuousQueryPlane(index)
        subscriber = plane.subscribe(REGION)
        label = next(
            label
            for label in sorted(plane.covered)
            if REGION.contains_region(region_of_label(label, 2))
        )
        batch = points_in(label, 12)
        dht.down = {sub_key(naming_function(label, 2))}
        for point in batch[:6]:
            index.insert(point)
        assert label not in {b.label for b in index.buckets()}
        assert not subscriber.delivered
        queued = len(plane.pending)
        # Theorem 5: the moved child's table is routed to ``sub:label``.
        dht.down = {sub_key(label)}
        assert plane.flush_pending() < 6
        assert 0 < len(plane.pending) <= queued
        assert label in plane.covered
        dht.down = set()
        plane.flush_pending()
        assert not plane.pending
        for point in batch[6:]:
            index.insert(point)
        assert sorted(subscriber.delivered_keys) == sorted(batch)

    def test_merge_during_a_rendezvous_outage_keeps_the_subscription(self):
        label, sibling, parent = "0010000", "0010001", "001000"
        with rendezvous_outage(seed=1, label=label) as (
            dht, index, plane, subscriber, victim,
        ):
            doomed = [
                record.key
                for bucket in index.buckets()
                if bucket.label in (label, sibling)
                for record in bucket.records
            ]
            for key in doomed:
                index.delete(key)
            assert parent in {b.label for b in index.buckets()}
            dht.restart(victim)
            plane.flush_pending()
            assert not plane.pending
            batch = points_in(parent, 3)
            for point in batch:
                index.insert(point)
            assert sorted(subscriber.delivered_keys) == sorted(batch)


class KeyOutageDht(DhtDecorator):
    """The keys in ``down`` answer :class:`NodeUnreachableError`, as a
    service-runtime peer that is down does, without losing state."""

    down = frozenset()

    def _check(self, key):
        if key in self.down:
            raise NodeUnreachableError(f"owner of {key!r} is down")

    def get(self, key):
        self._check(key)
        return self.inner.get(key)

    def put(self, key, value, *, records_moved=0):
        self._check(key)
        self.inner.put(key, value, records_moved=records_moved)


@contextlib.contextmanager
def rendezvous_outage(seed, label):
    """A durable chord ring, θ_split = 4, one subscriber to ``REGION``,
    and the owner of covered leaf *label*'s table failed.  The labels
    the tests pass are leaves of that seed's tree whose ``sub:`` owner
    holds no bucket on the lookup paths used, so the outage hits the
    rendezvous alone."""
    config = IndexConfig(
        dims=2, max_depth=14, split_threshold=4, merge_threshold=2
    )
    with tempfile.TemporaryDirectory() as tmp:
        dht = ChordDht.build(8, durability="log", data_dir=tmp)
        index, _ = build_over(dht, 40, seed=seed, config=config)
        plane = ContinuousQueryPlane(index)
        subscriber = plane.subscribe(REGION)
        assert label in plane.covered
        victim = dht.peer_of(sub_key(naming_function(label, 2)))
        dht.fail(victim)
        yield dht, index, plane, subscriber, victim


def points_in(label, count):
    """*count* seeded points of leaf *label*'s cell inside ``REGION``."""
    cell = region_of_label(label, 2)
    rng = random.Random(label)
    return [
        tuple(
            max(lo, 0.2) + rng.random() * (min(hi, 0.7) - max(lo, 0.2))
            for lo, hi in zip(cell.lows, cell.highs)
        )
        for _ in range(count)
    ]


class TestServiceContinuous:
    """Continuous queries as PUSH wire frames on the service runtime."""

    @pytest.mark.parametrize("kind", ["asyncio", "tcp"])
    def test_delivery_and_rehoming(self, kind):
        with create_dht(kind=kind, n_peers=8) as dht:
            index, points = build_over(dht, n_points=60, seed=21)
            plane = ServiceContinuousPlane(index)
            subscriber = plane.subscribe(REGION)
            rng = random.Random(22)
            batch = [(rng.random(), rng.random()) for _ in range(100)]
            for point in batch:
                index.insert(point)
            assert sorted(subscriber.delivered_keys) == in_region(batch)
            assert len(subscriber.delivered_keys) == len(
                set(subscriber.delivered_keys)
            )
            assert dht.stats.pushes > 0

    def test_exactly_once_through_crash_restart(self):
        with tempfile.TemporaryDirectory() as tmp:
            with create_dht(
                kind="asyncio", n_peers=8, durability="log", data_dir=tmp
            ) as dht:
                index, points = build_over(dht, n_points=80, seed=23)
                plane = ServiceContinuousPlane(index)
                subscriber = plane.subscribe(REGION)
                queued = None
                for label in sorted(plane.covered):
                    cell = region_of_label(label, 2)
                    mid = tuple(
                        min(max((lo + hi) / 2, 0.2001), 0.6999)
                        for lo, hi in zip(cell.lows, cell.highs)
                    )
                    if not cell.contains_point(mid):
                        continue
                    victim = dht.peer_of(
                        sub_key(naming_function(label, 2))
                    )
                    dht.fail(victim)
                    try:
                        index.insert(mid)
                    except NodeUnreachableError:
                        dht.restart(victim)
                        continue
                    if plane.pending:
                        queued = mid
                        break
                    dht.restart(victim)
                assert queued is not None
                dht.restart(victim)
                assert plane.flush_pending() == 1
                delivered = subscriber.delivered_keys
                assert delivered.count(queued) == 1
                assert len(delivered) == len(set(delivered))
