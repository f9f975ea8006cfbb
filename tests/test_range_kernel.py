"""The range-decomposition kernel, tested as what it is: pure code.

``branch_subqueries`` / ``fallback_cursor`` / ``peer_subquery`` /
``query_via_peers`` take no DHT; the drivers around them (client
rounds, SimNetwork agents, asyncio MCAST frames) are covered by
``test_rangequery`` and ``test_mcast``.
"""

import itertools
import random

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import IndexCorruptionError, NodeUnreachableError
from repro.common.geometry import Region, region_of_label, unit_region
from repro.common.labels import root_label
from repro.core.bucket import LeafBucket
from repro.core.index import MLightIndex
from repro.core.keys import bucket_key
from repro.core.naming import naming_function
from repro.core.rangequery import (
    branch_subqueries,
    compute_lca,
    fallback_cursor,
    peer_subquery,
    query_via_peers,
)
from repro.core.records import Record
from repro.dht.api import CALL, GET, BatchFailure, DhtStats
from repro.dht.chord import ChordDht
from repro.dht.faults import FaultPlan, FaultyDht
from repro.mcast import MulticastRuntime, ServiceMulticast
from repro.runtime import create_dht

DEPTH = 5


def labels_to_depth(dims, depth=DEPTH):
    root = root_label(dims)
    return [
        root + "".join(bits)
        for length in range(depth + 1)
        for bits in itertools.product("01", repeat=length)
    ]


def volume(label, dims):
    return 2.0 ** -(len(label) - len(root_label(dims)))


@pytest.mark.parametrize("dims", [1, 2, 3])
class TestCaseAnalysis:
    """Every (leaf, target) pair to depth 5 lands in exactly one case."""

    def test_every_pair(self, dims):
        whole = unit_region(dims)
        labels = labels_to_depth(dims)
        for leaf, target in itertools.product(labels, repeat=2):
            if target.startswith(leaf):
                # Ancestor-or-self: the leaf covers the whole subquery.
                assert branch_subqueries(leaf, target, whole, dims) == []
            elif leaf.startswith(target):
                # Corner cell: branches + leaf tile the target's cell.
                branches = branch_subqueries(leaf, target, whole, dims)
                cells = [branch for branch, _ in branches] + [leaf]
                assert all(cell.startswith(target) for cell in cells)
                assert not any(
                    a != b and b.startswith(a)
                    for a, b in itertools.product(cells, repeat=2)
                )
                assert sum(volume(cell, dims) for cell in cells) == (
                    volume(target, dims)
                )
                # A subquery covering the target is clipped to each
                # branch cell exactly.
                for branch, clipped in branches:
                    cell = region_of_label(branch, dims)
                    assert (clipped.lows, clipped.highs) == (
                        cell.lows, cell.highs
                    )
            else:
                with pytest.raises(IndexCorruptionError):
                    branch_subqueries(leaf, target, whole, dims)

    def test_only_overlapping_branches_receive_a_clipped_subquery(self, dims):
        rng = random.Random(dims)
        target = root_label(dims)
        for leaf in labels_to_depth(dims)[1:]:
            lows = tuple(rng.random() * 0.8 for _ in range(dims))
            highs = tuple(low + rng.random() * 0.2 for low in lows)
            subquery = Region(lows, highs)
            for branch, clipped in branch_subqueries(
                leaf, target, subquery, dims
            ):
                cell = region_of_label(branch, dims)
                for axis in range(dims):
                    assert clipped.lows[axis] == max(
                        lows[axis], cell.lows[axis]
                    )
                    assert clipped.highs[axis] == min(
                        highs[axis], cell.highs[axis]
                    )


class TestFallbackCursor:
    def probes(self, cursor, existing):
        """Drive *cursor* against a tree whose leaves are *existing*."""
        buckets = {
            bucket_key(naming_function(label, 2)): LeafBucket(label, 2)
            for label in existing
        }
        while not cursor.done:
            cursor.advance(buckets.get(cursor.current_key()))
        return cursor.result

    def test_finds_the_covering_ancestor_of_a_missing_target(self):
        # Leaves 0010 / 0011; target 00101 lies below leaf 0010.
        subquery = region_of_label("00101", 2)
        cursor = fallback_cursor(DhtStats(), "00101", subquery, 2, 10)
        found = self.probes(cursor, ["0010", "0011"])
        assert found.bucket.label == "0010"

    def test_anchor_bounds_the_search_from_below(self):
        subquery = region_of_label("0010101", 2)
        free = fallback_cursor(DhtStats(), "0010101", subquery, 2, 10)
        anchored = fallback_cursor(
            DhtStats(), "0010101", subquery, 2, 10, anchor="00101"
        )
        leaves = ["0011", "00100", "001011", "001010"]
        assert self.probes(free, leaves).bucket.label == "001010"
        assert self.probes(anchored, leaves).bucket.label == "001010"
        assert anchored.probes <= free.probes
        assert anchored.probes == 1

    def test_anchor_equal_to_target_is_no_bound(self):
        subquery = region_of_label("00101", 2)
        cursor = fallback_cursor(
            DhtStats(), "00101", subquery, 2, 10, anchor="00101"
        )
        assert self.probes(cursor, ["0010", "0011"]).bucket.label == "0010"


def forward(hops):
    """Stands in for a driver's forward; the scripted answers reply."""
    raise AssertionError("the kernel never calls its forward itself")


def drive(step, answers):
    """Run a ``peer_subquery`` generator against scripted *answers*
    (one per request, in order; an exception is thrown in, as a failed
    step's is); returns (requests, AgentResult)."""
    requests = []
    answers = iter(answers)
    try:
        request = next(step)
        while True:
            requests.append(request)
            answer = next(answers)
            if isinstance(answer, Exception):
                request = step.throw(answer)
            else:
                request = step.send(answer)
    except StopIteration as done:
        return requests, done.value


class TestPeerSubquery:
    """The peer-side step, driven with no network at all."""

    QUERY = Region((0.0, 0.0), (1.0, 1.0))

    def store(self, **named):
        """A local store holding each bucket under ``fmd(target)`` —
        the key its target's subquery is routed by."""
        held = {
            bucket_key(naming_function(target, 2)): bucket
            for target, bucket in named.items()
        }
        return held.get

    def bucket(self, label, *points):
        return LeafBucket(label, 2, [Record(p) for p in points])

    def test_covering_leaf_answers_alone(self):
        leaf = self.bucket("001", (0.1, 0.1), (0.9, 0.9))
        requests, result = drive(
            peer_subquery(
                self.store(**{"001": leaf}), "001", self.QUERY, self.QUERY,
                2, 10, DhtStats(), forward,
            ),
            [],
        )
        assert requests == []
        records, visited, rounds, unresolved = result
        assert sorted(r.key for r in records) == [(0.1, 0.1), (0.9, 0.9)]
        assert (visited, rounds, unresolved) == (["001"], 0, [])

    def test_corner_cell_forwards_its_branches_once_and_merges(self):
        corner = self.bucket("00100", (0.1, 0.1))
        stats = DhtStats()
        step = peer_subquery(
            self.store(**{"001": corner}), "001", self.QUERY, self.QUERY,
            2, 10, stats, forward,
        )
        child_a = ([Record((0.9, 0.1))], ["0011"], 2, [])
        failure = BatchFailure(NodeUnreachableError("down"))
        requests, result = drive(step, [[(child_a, 1), (failure, 3)]])
        [(op, function, (hops,))] = requests
        assert (op, function) == (CALL, forward)
        assert [hop.target for hop in hops] == ["0011", "00101"]
        assert [hop.key for hop in hops] == [
            bucket_key(naming_function(hop.target, 2)) for hop in hops
        ]
        # The kernel ticks the forward: a lookup and a peer-to-peer
        # forward per hop, one round for the lot.
        assert (stats.lookups, stats.mcast_forwards) == (2, 2)
        assert (stats.batch_rounds, stats.gets) == (1, 0)
        records, visited, rounds, unresolved = result
        assert sorted(r.key for r in records) == [(0.1, 0.1), (0.9, 0.1)]
        assert visited == ["00100", "0011"]
        # Deepest child: max(2 + 1, 3); the dead hop's region degrades.
        assert rounds == 3
        assert unresolved == [hops[1].subquery]

    def test_missing_target_probes_then_collects_the_covering_leaf(self):
        cover = self.bucket("0010", (0.1, 0.1))
        subquery = region_of_label("00101", 2)
        step = peer_subquery(
            self.store(), "00101", subquery, self.QUERY, 2, 10, DhtStats(),
            forward,
        )
        answers = {
            bucket_key(naming_function("0010", 2)): cover,
        }
        requests = []
        try:
            request = next(step)
            while True:
                op, key = request
                assert op is GET
                requests.append(request)
                request = step.send(answers.get(key))
        except StopIteration as done:
            records, visited, rounds, unresolved = done.value
        assert visited == ["0010"] and unresolved == []
        assert rounds == len(requests) >= 1

    def test_unreachable_fallback_reports_the_probes_it_spent(self):
        subquery = region_of_label("00101", 2)
        step = peer_subquery(
            self.store(), "00101", subquery, self.QUERY, 2, 10, DhtStats(),
            forward,
        )
        requests, result = drive(step, [NodeUnreachableError("down")])
        assert requests == [(GET, requests[0][1])]
        assert result == ([], [], 1, [subquery])

    def test_unrelated_local_leaf_is_index_corruption(self):
        held = {
            bucket_key(naming_function("0010", 2)): self.bucket("0011")
        }
        step = peer_subquery(
            held.get, "0010", self.QUERY, self.QUERY, 2, 10, DhtStats(),
            forward,
        )
        with pytest.raises(IndexCorruptionError):
            next(step)


class TestQueryViaPeers:
    def test_one_hop_to_the_lca_and_stats_deltas(self):
        stats = DhtStats()
        stats.lookups, stats.batch_rounds = 10, 4
        query = Region((0.6, 0.6), (0.7, 0.7))
        sent = []

        def send(hop):
            sent.append(hop)
            stats.lookups += 3
            stats.batch_rounds += 2
            return ([Record((0.65, 0.65))], ["leaf"], 2, []), 1

        result = query_via_peers(query, 2, 10, stats, send)
        [hop] = sent
        assert region_of_label(hop.target, 2).contains_point((0.65, 0.65))
        assert hop.key == bucket_key(naming_function(hop.target, 2))
        assert hop.subquery == query
        # The initiator's message is a forward of one hop, ticked by the
        # kernel; the rest is what the peers metered.
        assert (result.lookups, result.batch_rounds) == (1 + 3, 1 + 2)
        assert (stats.mcasts, stats.mcast_forwards) == (1, 1)
        assert result.rounds == 3 and result.complete
        assert result.visited_leaves == {"leaf"}

    def test_undeliverable_first_hop_is_the_whole_query_unresolved(self):
        query = Region((0.1, 0.1), (0.2, 0.2))
        failure = BatchFailure(NodeUnreachableError("down"))
        result = query_via_peers(
            query, 2, 10, DhtStats(), lambda hop: (failure, 1)
        )
        assert not result.complete
        assert result.unresolved == (query,)
        assert result.rounds == 1 and result.records == ()


class TestDegradedFallbackAcrossDrivers:
    """The covering leaf's owner is down: the sim agents and the
    asyncio MCAST handler — two drivers of one kernel — report the
    same rounds and the same unresolved region."""

    CONFIG = IndexConfig(
        dims=2, max_depth=14, split_threshold=10, merge_threshold=5
    )
    # A tiny query in the empty half: its LCA is deep, the leaf
    # covering it shallow, so the LCA's bucket is missing and the
    # fallback spends a probe before reaching the cover.  (Placed so
    # that, on the 8-peer service ring, the LCA's name, the first probe
    # and the cover have three different owners.)
    QUERY = Region((0.41, 0.26), (0.42, 0.27))

    def build(self, dht):
        index = MLightIndex(dht, self.CONFIG)
        rng = random.Random(5)
        for _ in range(60):
            index.insert((0.5 + rng.random() * 0.5, rng.random()))
        return index

    def fallback_keys(self, index):
        """The keys the fallback probes, replayed against the tree."""
        tree = {
            bucket_key(naming_function(bucket.label, 2)): bucket
            for bucket in index.buckets()
        }
        lca = compute_lca(self.QUERY, 2, self.CONFIG.max_depth)
        cursor = fallback_cursor(
            DhtStats(), lca, self.QUERY, 2, self.CONFIG.max_depth
        )
        keys = []
        while not cursor.done:
            keys.append(cursor.current_key())
            cursor.advance(tree.get(keys[-1]))
        return bucket_key(naming_function(lca, 2)), keys

    def test_identical_rounds_and_unresolved(self):
        chord = ChordDht.build(8)
        lca_key, keys = self.fallback_keys(self.build(chord))
        assert len(keys) >= 2  # the fallback spends probes before the cover
        faulty = FaultyDht(chord, FaultPlan(dead_keys=[keys[-1]]))
        sim = MulticastRuntime(faulty, 2, self.CONFIG.max_depth).query(
            self.QUERY
        )

        with create_dht(kind="asyncio", n_peers=8) as service:
            assert self.fallback_keys(self.build(service)) == (lca_key, keys)
            victim = service.peer_of(keys[-1])
            # The victim owns only the cover: every earlier step of the
            # query reaches a live peer, as in the simulated run.
            assert victim not in {
                service.peer_of(key) for key in [lca_key, *keys[:-1]]
            }
            mcast = ServiceMulticast(service, 2, self.CONFIG.max_depth)
            service.fail(victim)
            svc = mcast.query(self.QUERY)

        for result in (sim, svc):
            assert not result.complete
            assert result.records == ()
            assert result.unresolved == (self.QUERY,)
            # One hop to the LCA's owner, then every probe spent.
            assert result.rounds == 1 + len(keys)
            assert result.lookups == 1 + len(keys)
