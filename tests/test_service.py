"""Unit tests for the service plane: wire protocol, peer runtime,
retry/fault/tracer integration, and the load generator."""

from __future__ import annotations

import asyncio
import json
import pickle
from pathlib import Path

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import (
    DhtKeyError,
    NodeUnreachableError,
    ReproError,
)
from repro.common.rng import derive_seed, make_rng
from repro.core import codec
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.dht.api import ENVELOPE_WIRE_BYTES
from repro.dht.durable import AppendLogBackend, backend_path
from repro.dht.peer import HashRing, KeyValuePeer
from repro.dht.retry import RetryingDht
from repro.dht.faults import FaultPlan, FaultyDht
from repro.obs.trace import Tracer
from repro.service.node import ServiceDht, WallClock, serve_request
from repro.service.loadgen import (
    LoadReport,
    percentile,
    publish,
    run_load,
)
from repro.service.wire import (
    HEADER,
    FrameDecoder,
    Op,
    WireError,
    decode_frame,
    encode_error,
    encode_reply,
    encode_request,
    frame_wire_sizes,
    rebuild_error,
)
from repro.workloads.traces import Operation, request_trace


class TestWireProtocol:
    def test_request_round_trip(self):
        data = encode_request(Op.PUT, 7, "leaf-0101", {"a": 1})
        frame = decode_frame(data)
        assert frame.op is Op.PUT
        assert frame.request_id == 7
        assert frame.body == ("leaf-0101", {"a": 1})

    def test_reply_round_trip(self):
        frame = decode_frame(encode_reply(9, [1, 2, 3]))
        assert frame.op is Op.REPLY_OK
        assert frame.is_reply
        assert frame.body == [1, 2, 3]

    def test_error_reply_rebuilds_library_errors(self):
        frame = decode_frame(encode_error(3, DhtKeyError("key 'x' gone")))
        rebuilt = rebuild_error(frame.body)
        assert isinstance(rebuilt, DhtKeyError)
        assert "key 'x' gone" in str(rebuilt)

    def test_unknown_error_class_degrades_to_wire_error(self):
        frame = decode_frame(encode_error(3, RuntimeError("boom")))
        rebuilt = rebuild_error(frame.body)
        assert isinstance(rebuilt, WireError)
        assert "boom" in str(rebuilt)

    def test_bad_magic_rejected(self):
        data = bytearray(encode_reply(1, None))
        data[:4] = b"EVIL"
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(data))

    def test_bad_version_rejected(self):
        data = bytearray(encode_reply(1, None))
        data[4] = 99
        with pytest.raises(WireError, match="version"):
            decode_frame(bytes(data))

    def test_surplus_bytes_rejected_by_decode_frame(self):
        data = encode_reply(1, None) + b"x"
        with pytest.raises(WireError, match="leftover"):
            decode_frame(data)

    def test_decoder_reassembles_arbitrary_chunking(self):
        stream = b"".join(
            encode_request(Op.GET, i, f"key-{i}") for i in range(20)
        )
        for chunk_size in (1, 3, 7, len(stream)):
            decoder = FrameDecoder()
            frames = []
            for start in range(0, len(stream), chunk_size):
                frames.extend(
                    decoder.feed(stream[start : start + chunk_size])
                )
            assert [f.request_id for f in frames] == list(range(20))

    def test_wire_cost_uses_codec_accounting(self):
        from repro.core.bucket import LeafBucket
        from repro.core.codec import encoded_bucket_size
        from repro.core.records import Record

        bucket = LeafBucket("001", 2)
        for i in range(5):
            bucket.add(Record((i / 10.0, 0.5)))
        cost = frame_wire_sizes(Op.PUT, "leaf", bucket)[0]
        # Record-bearing payloads are priced at their exact codec size;
        # a non-record payload costs one envelope.
        assert cost == (
            HEADER.size + len(b"leaf") + encoded_bucket_size(bucket)
        )
        assert frame_wire_sizes(Op.PUT, "leaf", "opaque")[0] == (
            HEADER.size + len(b"leaf") + ENVELOPE_WIRE_BYTES
        )

    def test_serve_request_never_raises(self):
        peer = KeyValuePeer("p-0")
        reply = decode_frame(
            serve_request(
                peer, decode_frame(encode_request(Op.REMOVE, 5, "absent"))
            )
        )
        assert reply.op is Op.REPLY_ERR
        assert isinstance(rebuild_error(reply.body), DhtKeyError)


class TestHashRing:
    def test_matches_localdht_placement(self):
        from repro.dht.localhash import LocalDht

        ring = HashRing([f"peer-{i:04d}" for i in range(16)])
        local = LocalDht(16)
        for key in ("a", "leaf-0101", "x" * 40, "00110"):
            assert ring.peer_of(key) == local.peer_of(key)

    def test_empty_ring_rejected(self):
        with pytest.raises(ReproError):
            HashRing([])


class TestKeyValuePeer:
    def test_primitives(self):
        peer = KeyValuePeer("p-7")
        assert peer.serve("contains", "k") is False
        assert peer.serve("get", "k") is None
        peer.serve("put", "k", 42)
        assert peer.serve("get", "k") == 42
        assert peer.serve("lookup", "k") == "p-7"
        assert peer.serve("remove", "k") == 42
        with pytest.raises(DhtKeyError):
            peer.serve("remove", "k")

    def test_unknown_op_rejected(self):
        with pytest.raises(ReproError, match="unknown peer operation"):
            KeyValuePeer("p").serve("gossip", "k")


@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
class TestServiceDht:
    def test_primitives_and_errors_cross_the_wire(self, transport):
        with ServiceDht(4, transport=transport) as dht:
            dht.put("k1", "v1")
            assert dht.get("k1") == "v1"
            assert dht.get("missing") is None
            assert dht.lookup("k1") == dht.peer_of("k1")
            assert dht.remove("k1") == "v1"
            with pytest.raises(DhtKeyError):
                dht.remove("k1")
            with pytest.raises(DhtKeyError):
                dht.rewrite_local("k1", "v2")

    def test_batches_are_one_round(self, transport):
        with ServiceDht(4, transport=transport) as dht:
            dht.put_many([(f"k{i}", i) for i in range(10)])
            assert dht.get_many_outcomes([f"k{i}" for i in range(10)]) == list(
                range(10)
            )
            assert dht.stats.batch_rounds == 2
            assert dht.stats.batch_ops == 20
            assert dht.network.stats.rounds == 2
            assert dht.network.stats.max_round_fanout == 10

    def test_values_cross_by_copy_like_a_real_network(self, transport):
        """Mutating a value after put must not mutate the stored copy —
        the wire pickles; aliasing bugs that SimNetwork would mask
        surface here."""
        with ServiceDht(2, transport=transport) as dht:
            value = {"records": []}
            dht.put("k", value)
            value["records"].append("local-mutation")
            assert dht.get("k") == {"records": []}

    def test_close_is_idempotent_and_final(self, transport):
        dht = ServiceDht(2, transport=transport)
        dht.put("k", 1)
        dht.close()
        dht.close()
        with pytest.raises(ReproError, match="closed"):
            dht.get("k")

    def test_wall_clock_spans_recorded(self, transport):
        with ServiceDht(2, transport=transport) as dht:
            dht.put("k", 1)
            dht.get_many_outcomes(["k"])
            clock_kind, spent = dht.network.stats.latency_clock()
        assert clock_kind == "wall"
        assert spent > 0.0


class TestServiceOracles:
    def test_items_and_load_by_peer(self):
        with ServiceDht(4) as dht:
            for i in range(20):
                dht.put(f"k{i}", i)
            stored = dict(dht.items())
            assert stored == {f"k{i}": i for i in range(20)}
            loads = dht.load_by_peer()
            assert sum(loads.values()) == 20
            assert set(loads) == set(dht.peers())

    def test_unstarted_instance_is_empty_not_crashed(self):
        dht = ServiceDht(2)
        assert list(dht.items()) == []
        assert sum(dht.load_by_peer().values()) == 0
        dht.close()


class TestServedWhereTheFrameLands:
    """The asyncio transport has no inbox: a request frame is served on
    the task that sends it, so a peer is no task of its own."""

    def test_a_request_racing_a_crash_is_refused(self):
        """A request that reaches a peer after its stop has begun raises
        :class:`NodeUnreachableError` instead of waiting forever for a
        peer that will never answer (bounded here, so a hang fails)."""
        with ServiceDht(4) as dht:
            owner = dht._member(dht.peer_of("k"))

            async def race():
                stopping = asyncio.ensure_future(owner.stop())
                request = asyncio.ensure_future(dht._request(Op.GET, "k"))
                try:
                    await asyncio.wait_for(request, 1.0)
                except Exception as error:
                    return error
                finally:
                    await stopping

            assert isinstance(dht._bridge().run(race()), NodeUnreachableError)

    def test_loop_tasks_do_not_grow_with_the_peers(self):
        async def count_tasks():
            return len(asyncio.all_tasks())

        counts = []
        for n_peers in (8, 64):
            with ServiceDht(n_peers) as dht:
                dht.put("k", 1)
                counts.append(dht._bridge().run(count_tasks()))
        assert counts[0] == counts[1]

    def test_no_queue_in_the_service_package(self):
        package = Path(__file__).resolve().parent.parent / "src/repro/service"
        for path in package.glob("*.py"):
            assert "Queue" not in path.read_text(), path


class TestBucketBytePath:
    """The life of a bucket's bytes on the service runtime: packed by
    whoever mutated the bucket, copied by everyone else; a record store
    exists only where records were asked for."""

    DIMS = 2

    def _index(self, make_dht, tmp_path):
        dht = make_dht(
            kind="asyncio", n_peers=3, durability="log",
            data_dir=str(tmp_path),
        )
        config = IndexConfig(runtime="asyncio", durability="log")
        rng = make_rng(derive_seed(14, "byte-path"))
        points = [(rng.random(), rng.random()) for _ in range(600)]
        bulk_load(dht, points, config)
        return MLightIndex(dht, config), points

    def test_cold_lookup_builds_no_store_on_either_side(
        self, make_dht, tmp_path, store_builds, monkeypatch
    ):
        index, points = self._index(make_dht, tmp_path)
        packed = _count_column_packings(monkeypatch)
        store_builds.clear()
        for point in points[:20]:
            result = index.lookup(point)
            assert result.lookups > 1  # a binary search, not one probe
            assert result.bucket.covers(point)
            assert result.bucket.load > 0
        assert store_builds == [] and packed == []
        assert point in [r.key for r in result.bucket.records]
        assert store_builds == ["columnar"]  # the client asked, once

    def test_plain_insert_builds_one_store_and_packs_once(
        self, make_dht, tmp_path, store_builds, monkeypatch
    ):
        index, _ = self._index(make_dht, tmp_path)
        config = index.config
        point = (0.40625, 0.71875)
        assert index.lookup(point).bucket.load < config.split_threshold - 1
        splits_before = index.tree_size()
        packed = _count_column_packings(monkeypatch)
        store_builds.clear()
        result = index.insert(point, "payload")
        assert store_builds == ["columnar"]      # the client's, for add()
        assert len(packed) == self.DIMS          # one packing, the client's
        assert index.tree_size() == splits_before
        # Reading it back copies the peer's resident bytes: no store on
        # the peer, no packing anywhere.
        store_builds.clear()
        again = index.lookup(point).bucket
        assert store_builds == [] and len(packed) == self.DIMS
        assert codec.encode_bucket(again) == codec.encode_bucket(result.bucket)

    def test_journal_holds_the_put_frames_codec_bytes(
        self, make_dht, tmp_path, monkeypatch
    ):
        from repro.service import node

        frames = []
        real_encode_request = node.encode_request

        def recording(op, request_id, key, value=None):
            frame = real_encode_request(op, request_id, key, value)
            frames.append((op, key, frame))
            return frame

        index, _ = self._index(make_dht, tmp_path)
        monkeypatch.setattr(node, "encode_request", recording)
        bucket = index.insert((0.40625, 0.71875), "payload").bucket
        dht = index.dht
        (put_key, put_frame), = [
            (key, frame) for op, key, frame in frames if op is Op.PUT
        ]
        codec_bytes = codec.encode_bucket(bucket)
        assert codec_bytes in put_frame
        owner = dht.peer_of(put_key)
        dht.close()
        journal = AppendLogBackend(backend_path(tmp_path, owner))
        try:
            blob = journal.replay()[put_key]
        finally:
            journal.close()
        assert codec_bytes in blob
        assert blob == pickle.dumps(bucket, protocol=pickle.HIGHEST_PROTOCOL)

    def test_oracle_reads_of_resident_buckets_stay_consistent(
        self, make_dht, tmp_path, store_builds
    ):
        index, points = self._index(make_dht, tmp_path)
        dht = index.dht
        store_builds.clear()
        assert index.total_records() == len(points)
        assert sum(
            dht.load_by_peer(lambda bucket: bucket.load).values()
        ) == len(points)
        assert store_builds == []  # loads come from headers
        by_records = dht.load_by_peer(lambda bucket: len(bucket.records))
        assert sum(by_records.values()) == len(points)
        # The client thread built the peers' stores; the peers keep
        # serving the same bytes.
        assert index.lookup(points[0]).bucket.covers(points[0])


def _count_column_packings(monkeypatch) -> list:
    """One entry per coordinate column packed by ``encode_bucket``."""
    packed = []
    real = codec._column_bytes

    def counting(column):
        packed.append(len(column))
        return real(column)

    monkeypatch.setattr(codec, "_column_bytes", counting)
    return packed


class TestWrapperStack:
    def test_retrying_dht_wraps_the_service_runtime(self):
        with ServiceDht(4) as inner:
            dht = RetryingDht(inner, attempts=3)
            dht.put("k", "v")
            assert dht.get("k") == "v"
            # The retry wrapper resolved its clock from the service
            # transport: waits would burn wall time, not virtual time.
            assert dht.clock is inner.network.clock

    def test_faulty_dht_injects_over_the_wire(self):
        with ServiceDht(4) as inner:
            plan = FaultPlan(drop_rate=0.9, seed=1)
            dht = FaultyDht(inner, plan)
            inner.put("k", "v")
            dropped = 0
            for _ in range(20):
                try:
                    dht.get("k")
                except NodeUnreachableError:
                    dropped += 1
            assert dropped >= 1
            assert dht.stats.faults_dropped == dropped

    def test_tracer_attaches_with_zero_index_changes(self):
        from repro.common.config import IndexConfig
        from repro.core.index import MLightIndex

        with ServiceDht(4) as dht:
            index = MLightIndex(
                dht,
                IndexConfig(
                    dims=2, split_threshold=8, merge_threshold=4,
                    tracing=True,
                ),
            )
            assert isinstance(index.tracer, Tracer)
            assert dht.network.tracer is index.tracer
            index.insert((0.25, 0.75), "a")
            index.lookup((0.25, 0.75))
            kinds = {span.kind for span in index.tracer.spans}
            assert "dht" in kinds and "query" in kinds


class TestWallClock:
    def test_now_is_monotonic_and_advance_sleeps(self):
        clock = WallClock()
        before = clock.now
        clock.advance(0.01)
        assert clock.now - before >= 0.01
        clock.advance(0.0)  # no-op, must not raise


class TestPercentile:
    def test_empty_and_singleton(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 50) == 5.0

    def test_interpolates(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == pytest.approx(50.5)
        assert percentile(values, 99) == pytest.approx(99.01)
        assert percentile(values, 95) == pytest.approx(95.05)


class TestRequestTrace:
    def test_mix_is_deterministic_and_weighted(self):
        points = [(0.1, 0.2), (0.3, 0.4)]
        trace = request_trace(points, 300, seed=5)
        again = request_trace(points, 300, seed=5)
        assert trace == again
        kinds = [op.kind for op in trace]
        assert kinds.count("lookup") > kinds.count("range")
        assert all(
            op.region is not None for op in trace if op.kind == "range"
        )

    def test_regions_stay_in_the_unit_cube(self):
        points = [(0.001, 0.999)]
        for op in request_trace(points, 50, range_fraction=1.0,
                                lookup_fraction=0.0, insert_fraction=0.0):
            assert all(0.0 <= low for low in op.region.lows)
            assert all(high <= 1.0 for high in op.region.highs)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ReproError):
            request_trace([], 10)
        with pytest.raises(ReproError):
            request_trace([(0.5, 0.5)], 10, lookup_fraction=-1.0)
        with pytest.raises(ReproError):
            request_trace([(0.5, 0.5)], 10, span=0.0)


class TestLoadGenerator:
    def _loaded_index(self, n=300):
        from repro.common.config import IndexConfig
        from repro.core.index import MLightIndex
        from repro.datasets.synthetic import uniform_points
        from repro.runtime import create_dht

        points = uniform_points(n, seed=11)
        dht = create_dht(kind="asyncio", n_peers=2)
        index = MLightIndex(
            dht, IndexConfig(dims=2, split_threshold=20, merge_threshold=10)
        )
        index.insert_many(points)
        return index, points

    def test_open_loop_run_reports_percentiles(self):
        index, points = self._loaded_index()
        try:
            report = run_load(
                index,
                request_trace(points, 100, seed=2),
                target_qps=400.0,
                workers=8,
                runtime_label="asyncio",
                records_loaded=len(points),
                n_peers=2,
            )
        finally:
            index.dht.close()
        assert report.completed == 100
        assert report.failed == 0
        assert report.achieved_qps > 0
        assert (
            report.latency_ms["p50"]
            <= report.latency_ms["p95"]
            <= report.latency_ms["p99"]
            <= report.latency_ms["max"]
        )
        rendered = report.render()
        assert "p99 latency (ms)" in rendered
        assert "achieved QPS" in rendered
        # Per-operation-type percentiles ride along in the report and
        # the rendered table.
        assert set(report.latency_ms_by_op) <= {"lookup", "range", "insert"}
        assert "lookup" in report.latency_ms_by_op
        for summary in report.latency_ms_by_op.values():
            assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert "latency by operation type" in rendered

    def test_failed_operations_are_counted_not_raised(self):
        index, points = self._loaded_index(50)
        bad = [Operation("bogus", (0.5, 0.5))]
        try:
            report = run_load(
                index,
                request_trace(points, 10, seed=2) + bad,
                target_qps=1000.0,
            )
        finally:
            index.dht.close()
        assert report.failed == 1
        assert report.completed == 10

    def test_publish_writes_json(self, tmp_path):
        report = LoadReport(
            runtime="asyncio", peers=2, records=10, target_qps=100.0,
            duration_s=0.1, operations=10, completed=10, failed=0,
            achieved_qps=99.0,
            latency_ms={"p50": 1.0, "p95": 2.0, "p99": 3.0,
                        "mean": 1.2, "max": 3.5},
        )
        path = publish(report, tmp_path / "nested" / "load.json")
        data = json.loads(path.read_text())
        assert data["latency_ms"]["p99"] == 3.0
        assert data["achieved_qps"] == 99.0
        assert report.achieved_fraction() == pytest.approx(0.99)

    def test_validation(self):
        index, points = self._loaded_index(50)
        try:
            with pytest.raises(ReproError):
                run_load(index, [], target_qps=10.0)
            with pytest.raises(ReproError):
                run_load(
                    index, request_trace(points, 5), target_qps=0.0
                )
        finally:
            index.dht.close()
