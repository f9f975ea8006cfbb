"""Edge-case tests filling coverage gaps across modules."""

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import ReproError
from repro.dht.chord import ChordDht
from repro.dht.kademlia import BUCKET_SIZE, KademliaDht, KademliaNode
from repro.dht.localhash import LocalDht
from repro.net.events import EventScheduler
from repro.net.simnet import SimNetwork


class TestEventHandleTime:
    def test_exposes_firing_time(self):
        scheduler = EventScheduler()
        handle = scheduler.schedule(4.5, lambda: None)
        assert handle.time == 4.5


class TestRegionCorners:
    def test_corner_low_inside_half_open_cell(self):
        from repro.common.geometry import region_of_label

        cell = region_of_label("00101", 2)
        assert cell.contains_point(cell.corner_low())


class TestChordEdges:
    def test_leave_last_node_empties_ring(self):
        dht = ChordDht.build(1)
        dht.put("k", 1)
        dht.leave("chord-0000")
        with pytest.raises(ReproError):
            dht.lookup("k")

    def test_leave_down_to_one_node(self):
        dht = ChordDht.build(3)
        for index in range(12):
            dht.put(f"key-{index}", index)
        peers = dht.peers()
        dht.leave(peers[0])
        dht.stabilize_all(3)
        dht.leave(peers[1])
        dht.stabilize_all(3)
        # Sole survivor holds everything.
        assert sum(1 for _ in dht.items()) == 12
        for index in range(12):
            assert dht.get(f"key-{index}") == index

    def test_gateway_error_on_empty_ring(self):
        dht = ChordDht()
        with pytest.raises(ReproError):
            dht.lookup("anything")


class TestKademliaEviction:
    def test_dead_oldest_contact_evicted(self):
        net = SimNetwork()
        node = KademliaNode("kad-home", net)
        # Find many contacts falling into one bucket of `node`.
        same_bucket: list[KademliaNode] = []
        index = 0
        target_bucket = None
        while len(same_bucket) < BUCKET_SIZE + 1:
            other = KademliaNode(f"kad-cand-{index}", net)
            index += 1
            bucket_index = node._bucket_index(other.ident)
            if target_bucket is None:
                target_bucket = bucket_index
            if bucket_index == target_bucket:
                same_bucket.append(other)
            else:
                net.unregister(other.name)
        for other in same_bucket[:BUCKET_SIZE]:
            node.observe(other.ident, other.name)
        bucket = node.buckets[target_bucket]
        assert len(bucket) == BUCKET_SIZE
        oldest = bucket[0]
        # While the oldest is alive, a newcomer is rejected.
        newcomer = same_bucket[BUCKET_SIZE]
        node.observe(newcomer.ident, newcomer.name)
        assert (newcomer.ident, newcomer.name) not in bucket
        # Kill the oldest: now the newcomer replaces it.
        net.unregister(oldest[1])
        node.observe(newcomer.ident, newcomer.name)
        assert (newcomer.ident, newcomer.name) in bucket
        assert oldest not in bucket


class TestLoaderDelimiter:
    def test_custom_delimiter(self, tmp_path):
        from repro.datasets.loader import load_points

        path = tmp_path / "points.csv"
        path.write_text("0.1,0.2\n0.3,0.4\n")
        points = load_points(path, delimiter=",", normalize=False)
        assert points == [(0.1, 0.2), (0.3, 0.4)]


class TestPeekMissing:
    def test_returns_none(self):
        assert LocalDht(4).peek("missing") is None


class TestInsertManyEdge:
    def test_empty_iterable(self):
        from repro.core.index import MLightIndex

        index = MLightIndex(
            LocalDht(4),
            IndexConfig(dims=2, max_depth=8, split_threshold=4,
                        merge_threshold=2),
        )
        assert index.insert_many([]) == 0


class TestKademliaJoinFirstNode:
    def test_join_into_empty_overlay(self):
        dht = KademliaDht()
        dht.join("kad-first")
        dht.put("k", 1)
        assert dht.get("k") == 1


class TestWireByteAccounting:
    def test_store_puts_account_codec_bytes(self):
        from repro.core.bucket import LeafBucket
        from repro.core.codec import encoded_bucket_size
        from repro.core.records import Record
        from repro.net.message import (
            ENVELOPE_WIRE_BYTES,
            MESSAGE_HEADER_BYTES,
            message_sizes,
        )

        bucket = LeafBucket("001", 2)
        bucket.add(Record((0.5, 0.5)))
        bucket.add(Record((0.6, 0.6)))
        # Record-bearing payloads are priced at their exact encoded
        # size — the same bytes a wire frame would carry — all data.
        size = encoded_bucket_size(bucket)
        head = MESSAGE_HEADER_BYTES
        assert message_sizes("", bucket) == (head + size, size)
        assert message_sizes("", "plain") == (head + ENVELOPE_WIRE_BYTES, 0)
        assert message_sizes("", None) == (head, 0)

    def test_network_bytes_grow_with_bucket_size(self):
        from repro.core.bucket import LeafBucket
        from repro.core.records import Record

        dht = ChordDht.build(8)
        small = LeafBucket("001", 2)
        dht.put("a", small)
        bytes_small = dht.network.stats.bytes_sent
        big = LeafBucket("001", 2)
        for i in range(50):
            big.add(Record((i / 100.0, 0.5)))
        dht.put("b", big)
        # 50 extra records at dims * 8 coordinate bytes each; routing
        # variance between the two keys stays far below that.
        assert dht.network.stats.bytes_sent - bytes_small > 50 * 8
