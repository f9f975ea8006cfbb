"""Round batches vs the per-key reference.

Issuing a round as one batch is a *latency* optimisation: answers and
the paper's bandwidth meters (lookups, gets, puts, records moved) must
be bit-identical to issuing its elements one ``get``/``put`` at a time
(``conftest.PerKeyDht``) on every substrate; only the round structure —
``batch_rounds``, simulated network rounds, the virtual clock — may
differ.  These tests pin that contract, plus the derived-rounds
property (every issued batch is exactly one simulated message round)
and the partial-failure retry semantics of batches.
"""

import random

import pytest

from repro.common.config import IndexConfig
from repro.common.geometry import Region
from repro.core.bucket import LeafBucket
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.core.keys import bucket_key
from repro.core.naming import naming_function
from repro.core.rangequery import RangeQueryEngine
from repro.core.records import Record
from repro.dht.api import BatchFailure
from repro.dht.chord import ChordDht
from repro.dht.kademlia import KademliaDht
from repro.dht.localhash import LocalDht
from repro.dht.pastry import PastryDht
from repro.dht.retry import RetryingDht
from repro.net.simnet import RpcError, SimNetwork
from tests.conftest import PerKeyDht, brute_force_range, random_tree_leaves
from tests.test_rangequery import random_query

#: Counters allowed to differ from the reference: the program issues
#: rounds, the per-key reference never does.
ROUND_ONLY_KEYS = {"batch_rounds", "batch_ops"}

SUBSTRATES = [
    ("local", lambda: LocalDht(16)),
    ("chord", lambda: ChordDht.build(10)),
    ("pastry", lambda: PastryDht.build(10)),
    ("kademlia", lambda: KademliaDht.build(10)),
    ("retrying-local", lambda: RetryingDht(LocalDht(16))),
]


def populate_tree(dht, seed, dims=2, max_depth=10, n_points=200):
    """Place the same random tree and records on any substrate.

    A fixed *seed* makes two substrates carry bit-identical trees, so
    their engines can be compared probe for probe.
    """
    rng = random.Random(seed)
    leaves = random_tree_leaves(rng, dims, max_depth)
    buckets = {leaf: LeafBucket(leaf, dims) for leaf in leaves}
    regions = {leaf: bucket.region for leaf, bucket in buckets.items()}
    points = []
    for _ in range(n_points):
        point = tuple(rng.random() for _ in range(dims))
        points.append(point)
        for leaf, region in regions.items():
            if region.contains_point(point):
                buckets[leaf].add(Record(point))
                break
    for leaf, bucket in buckets.items():
        dht.put(bucket_key(naming_function(leaf, dims)), bucket)
    return points


def snapshot_delta(stats, before):
    after = stats.snapshot()
    return {key: after[key] - before[key] for key in after}


class TestPlaneEquivalence:
    @pytest.mark.parametrize(
        "name,factory", SUBSTRATES, ids=[name for name, _ in SUBSTRATES]
    )
    @pytest.mark.parametrize("lookahead", [1, 2, 4])
    def test_same_answers_and_meters_on_every_substrate(
        self, name, factory, lookahead
    ):
        """Identical substrates, one engine on each and the second
        behind the per-key reference: every query must agree on
        records, visited leaves, lookups, rounds, and on the
        substrate-level meter deltas (batch counters excepted)."""
        batched_dht, sequential_dht = factory(), factory()
        points = populate_tree(batched_dht, seed=17)
        populate_tree(sequential_dht, seed=17)
        batched = RangeQueryEngine(batched_dht, 2, 10)
        sequential = RangeQueryEngine(PerKeyDht(sequential_dht), 2, 10)

        rng = random.Random(3)
        for _ in range(6):
            query = random_query(rng, 2)
            before_b = batched_dht.stats.snapshot()
            before_s = sequential_dht.stats.snapshot()
            result_b = batched.query(query, lookahead)
            result_s = sequential.query(query, lookahead)

            expected = brute_force_range(points, query)
            assert sorted(r.key for r in result_b.records) == expected
            assert sorted(r.key for r in result_s.records) == expected
            assert result_b.visited_leaves == result_s.visited_leaves
            assert result_b.lookups == result_s.lookups
            assert result_b.rounds == result_s.rounds

            delta_b = snapshot_delta(batched_dht.stats, before_b)
            delta_s = snapshot_delta(sequential_dht.stats, before_s)
            for key in delta_b:
                if key in ROUND_ONLY_KEYS:
                    continue
                assert delta_b[key] == delta_s[key], key
            assert result_b.batch_rounds == delta_b["batch_rounds"] > 0
            assert result_s.batch_rounds == delta_s["batch_rounds"] == 0

    @staticmethod
    def maintenance_run(dht):
        """Splits, range queries at lookahead 1/2/4, merges: the final
        leaf set, every query's answer and meters, the substrate's
        meters (batch counters apart) and its batch-round count."""
        rng = random.Random(23)
        points = [(rng.random(), rng.random()) for _ in range(300)]
        config = IndexConfig(
            dims=2, max_depth=12, split_threshold=10, merge_threshold=5
        )
        index = MLightIndex(dht, config)
        index.insert_many(points)
        index.check_invariants()
        queries = []
        for lookahead in (1, 2, 4):
            query = random_query(rng, 2)
            result = index.range_query(query, lookahead)
            assert sorted(r.key for r in result.records) == (
                brute_force_range(points, query)
            )
            queries.append(
                (result.records, result.lookups, result.rounds,
                 result.visited_leaves)
            )
        for point in points[:250]:
            assert index.delete(point)
        index.check_invariants()
        stats = dht.stats.snapshot()
        assert stats["removes"] > 0  # merges really happened
        return (
            sorted(bucket.label for bucket in index.buckets()),
            queries,
            {k: v for k, v in stats.items() if k not in ROUND_ONLY_KEYS},
            stats["batch_rounds"],
        )

    def test_index_maintenance_equivalent_across_planes(self):
        """Maintenance and queries through the index produce the same
        tree, answers and bandwidth meters as the reference."""
        *run, rounds = self.maintenance_run(LocalDht(16))
        *reference, no_rounds = self.maintenance_run(PerKeyDht(LocalDht(16)))
        assert run == reference
        assert rounds > 0 and no_rounds == 0

    @pytest.mark.parametrize(
        "name,factory", SUBSTRATES[1:4], ids=[n for n, _ in SUBSTRATES[1:4]]
    )
    def test_index_maintenance_equivalent_on_routed_overlays(
        self, name, factory
    ):
        *run, rounds = self.maintenance_run(factory())
        *reference, no_rounds = self.maintenance_run(PerKeyDht(factory()))
        assert run == reference
        assert rounds > 0 and no_rounds == 0

    def test_bulk_load_equivalent_across_planes(self):
        rng = random.Random(9)
        points = [(rng.random(), rng.random()) for _ in range(400)]
        config = IndexConfig(
            dims=2, max_depth=12, split_threshold=20, merge_threshold=10
        )
        placements = {}
        stats = {}
        for plane, wrap in (("batched", lambda d: d), ("sequential", PerKeyDht)):
            dht = wrap(LocalDht(16))
            placements[plane] = bulk_load(dht, points, config)
            stats[plane] = dht.stats.snapshot()
        assert placements["batched"] == placements["sequential"]
        for key, value in stats["batched"].items():
            if key in ROUND_ONLY_KEYS:
                continue
            assert value == stats["sequential"][key], key
        assert stats["batched"]["batch_rounds"] == 1
        assert stats["sequential"]["batch_rounds"] == 0


class TestDerivedRounds:
    def test_batches_are_message_rounds_on_routed_substrate(self):
        """Property: on a routed overlay, every issued batch is exactly
        one simulated message round, so the batch counter and the
        network's round counter move in lockstep — rounds are derived
        from issuance, not hand-counted."""
        dht = ChordDht.build(10)
        populate_tree(dht, seed=29, max_depth=10, n_points=150)
        engine = RangeQueryEngine(dht, 2, 10)
        network = dht.network

        rng = random.Random(31)
        for lookahead in (1, 2, 4):
            query = random_query(rng, 2)
            batches_before = dht.stats.batch_rounds
            net_rounds_before = network.stats.rounds
            latency_before = network.stats.critical_path_latency
            clock_before = network.clock.now
            result = engine.query(query, lookahead)

            issued = dht.stats.batch_rounds - batches_before
            observed = network.stats.rounds - net_rounds_before
            # The result's latency measure IS the issuance structure:
            # one builder round per engine iteration, one get_many per
            # iteration, one simulated message round per get_many.
            assert result.rounds == issued == observed > 0
            # During a batched query every RPC rides a round, so the
            # clock advanced by exactly the accumulated critical paths.
            assert network.clock.now - clock_before == pytest.approx(
                network.stats.critical_path_latency - latency_before
            )

    def test_lookahead_cuts_simulated_latency(self):
        """Fig. 7's premise made observable: with latency charged per
        round (not per probe), lookahead=4 finishes the same query in
        less simulated time than lookahead=1."""
        dht = ChordDht.build(10)
        rng = random.Random(11)
        leaves = random_tree_leaves(rng, 2, 12)
        buckets = {leaf: LeafBucket(leaf, 2) for leaf in leaves}
        for _ in range(2000):
            point = (rng.random(), rng.random())
            for leaf, bucket in buckets.items():
                if bucket.region.contains_point(point):
                    bucket.add(Record(point))
                    break
        for leaf, bucket in buckets.items():
            dht.put(bucket_key(naming_function(leaf, 2)), bucket)
        engine = RangeQueryEngine(dht, 2, 12)
        query = Region((0.05, 0.05), (0.85, 0.85))

        elapsed = {}
        for lookahead in (1, 4):
            start = dht.network.clock.now
            engine.query(query, lookahead)
            elapsed[lookahead] = dht.network.clock.now - start
        assert elapsed[4] < elapsed[1]


class FlakyBatchDht(LocalDht):
    """LocalDht whose armed keys fail a fixed number of wire ops."""

    def __init__(self):
        super().__init__(8)
        self._budget: dict[str, int] = {}

    def arm(self, keys, failures=1):
        for key in keys:
            self._budget[key] = failures

    def exchange(self, peer, op, key, value=None):
        if self._budget.get(key, 0) > 0:
            self._budget[key] -= 1
            raise RpcError(f"injected failure for {key!r}")
        return super().exchange(peer, op, key, value)


class TestBatchRetries:
    def test_facade_surfaces_first_batch_failure(self):
        dht = FlakyBatchDht()
        for index in range(4):
            dht.put(f"k{index}", index)
        dht.arm(["k1"])
        outcomes = dht.get_many_outcomes([f"k{index}" for index in range(4)])
        assert [outcomes[slot] for slot in (0, 2, 3)] == [0, 2, 3]
        assert isinstance(outcomes[1], BatchFailure)
        assert isinstance(outcomes[1].error, RpcError)

    def test_retries_only_the_failed_subset(self):
        dht = FlakyBatchDht()
        for index in range(4):
            dht.put(f"k{index}", index)
        dht.stats.reset()
        dht.arm(["k1", "k3"])
        wrapped = RetryingDht(dht, attempts=3)
        assert wrapped.get_many_outcomes(
            [f"k{index}" for index in range(4)]
        ) == [0, 1, 2, 3]
        # First round carried 4 elements, the retry round only the two
        # failed ones — each metered as a real lookup.
        assert dht.stats.lookups == 6
        assert dht.stats.gets == 6
        assert dht.stats.batch_rounds == 2
        assert dht.stats.batch_ops == 6
        assert dht.stats.retries == 2
        assert dht.stats.batch_retries == 2
        assert wrapped.retries == 2

    def test_put_many_remeters_retried_transfers(self):
        dht = FlakyBatchDht()
        wrapped = RetryingDht(dht, attempts=3)
        dht.arm(["b"])
        wrapped.put_many(
            [("a", 1), ("b", 2), ("c", 3), ("d", 4)],
            records_moved=[1, 2, 3, 4],
        )
        assert dht.peek("b") == 2
        # 10 records in the first round plus 2 for the retried element.
        assert dht.stats.records_moved == 12
        assert dht.stats.puts == 5
        assert dht.stats.batch_retries == 1

    def test_gives_up_after_attempts(self):
        dht = FlakyBatchDht()
        for index in range(4):
            dht.put(f"k{index}", index)
        dht.stats.reset()
        dht.arm(["k2"], failures=10)
        wrapped = RetryingDht(dht, attempts=2)
        outcomes = wrapped.get_many_outcomes(
            [f"k{index}" for index in range(4)]
        )
        assert isinstance(outcomes[2].error, RpcError)
        # One full round plus one single-element retry round.
        assert dht.stats.lookups == 5
        assert dht.stats.batch_retries == 1


class TestBatchMetering:
    def test_get_many_meters_like_individual_gets(self):
        """One batch costs exactly what its elements cost sequentially;
        only the round counters differ — bandwidth is never batched."""
        batched, sequential = LocalDht(8), LocalDht(8)
        for index in range(6):
            batched.put(f"k{index}", index)
            sequential.put(f"k{index}", index)
        keys = [f"k{index}" for index in range(6)]
        assert batched.get_many_outcomes(keys) == [
            sequential.get(key) for key in keys
        ]
        for key in ("lookups", "gets", "puts", "records_moved"):
            assert (
                batched.stats.snapshot()[key]
                == sequential.stats.snapshot()[key]
            ), key
        assert batched.stats.batch_rounds == 1
        assert batched.stats.batch_ops == 6

    def test_empty_batches_are_free(self):
        dht = LocalDht(8)
        assert dht.get_many_outcomes([]) == []
        dht.put_many([])
        assert dht.stats.batch_rounds == 0
        assert dht.stats.lookups == 0

    def test_broadcast_round_advances_clock_once(self):
        """A broadcast — one sender, several independent deliveries —
        is one message round: each delivery its own chain."""
        network = SimNetwork()

        class Echo:
            def handle_rpc(self, message):
                return message.msg_type

        network.register("a", Echo())
        network.register("b", Echo())
        network.register("c", Echo())
        results = []
        with network.message_round() as round_:
            for peer in ("b", "c"):
                with round_.chain():
                    results.append(network.rpc("a", peer, "ping"))
        assert results == ["ping", "ping"]
        # Two parallel deliveries, one round: the clock advanced by the
        # slowest single round trip, not the sum of both.
        assert network.clock.now == 2.0
        assert network.stats.rounds == 1
        assert network.stats.max_round_fanout == 2
