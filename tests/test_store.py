"""The record-store plane: backends, Rows interchange, codec, wiring.

The seam contract: every registered :class:`RecordStore` backend is an
exact re-expression of the naive record list — same answers, same
insertion order, bit-identical floats — and the codec round-trips any
bucket through its wire bytes without changing either.
"""

from __future__ import annotations

import pickle

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import UnknownStoreError
from repro.common.geometry import Region
from repro.common.labels import interleave, root_label
from repro.core import codec, npstore
from repro.core.bucket import LeafBucket
from repro.core.records import Record
from repro.core.store import (
    DEFAULT_STORE,
    Rows,
    create_store,
    register_store,
    store_backends,
)

BACKENDS = ["columnar", "numpy"]


def _records(rng, dims, count):
    return [
        Record(tuple(rng.random() for _ in range(dims)), index)
        for index in range(count)
    ]


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(BACKENDS) <= set(store_backends())
        assert DEFAULT_STORE in store_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(UnknownStoreError):
            create_store("bogus", 2, 0)
        with pytest.raises(UnknownStoreError):
            IndexConfig(store="bogus")

    def test_unknown_store_error_is_value_error(self):
        # Mirrors UnknownRuntimeError: callers catching ValueError for
        # bad config strings keep working.
        assert issubclass(UnknownStoreError, ValueError)

    def test_register_store_extends_config_surface(self):
        from repro.core import store as store_mod

        def factory(dims, sort_dim, source=None):
            return store_mod.ColumnarStore(dims, sort_dim, source or ())

        register_store("test-custom", factory)
        try:
            assert "test-custom" in store_backends()
            config = IndexConfig(store="test-custom")
            assert config.store == "test-custom"
            bucket = LeafBucket("00", 2, store="test-custom")
            bucket.add(Record((0.5, 0.5)))
            assert bucket.load == 1
        finally:
            store_mod.STORES.table.pop("test-custom", None)

    def test_empty_kind_rejected(self):
        with pytest.raises(UnknownStoreError):
            register_store("", lambda *a: None)


class TestRowsInterchange:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_to_rows_from_rows_roundtrip(self, kind, rng):
        records = _records(rng, 3, 40)
        store = create_store(kind, 3, 0, records)
        rows = store.to_rows()
        assert len(rows) == 40
        rebuilt = create_store(kind, 3, 0, rows)
        assert rebuilt.records() == records

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_none_values_travel_as_sentinel(self, kind, rng):
        points = [
            Record(tuple(rng.random() for _ in range(2))) for _ in range(10)
        ]
        store = create_store(kind, 2, 0, points)
        rows = store.to_rows()
        assert rows.values is None  # all-None payloads collapse
        assert store.payload_values() is None

    def test_rows_partition_matches_record_partition(self, rng):
        records = _records(rng, 2, 60)
        rows = Rows.from_records(records, 2)
        midpoint = 0.5
        low_rows, high_rows = rows.partition(0, midpoint)
        low_ref = [r for r in records if r.key[0] < midpoint]
        high_ref = [r for r in records if r.key[0] >= midpoint]
        assert low_rows.to_records() == low_ref
        assert high_rows.to_records() == high_ref


class TestBackendEquivalence:
    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_matching_identical_to_list_oracle(self, kind, dims, rng):
        """The oracle is the naive scan over the inserted list."""
        for _ in range(5):
            records = _records(rng, dims, rng.randrange(0, 100))
            store = create_store(kind, dims, dims - 1, list(records))
            for _ in range(6):
                bounds = [
                    sorted((rng.random(), rng.random())) for _ in range(dims)
                ]
                query = Region(
                    tuple(low for low, _ in bounds),
                    tuple(high for _, high in bounds),
                )
                assert store.matching(query.lows, query.highs) == [
                    record
                    for record in records
                    if query.contains_point_closed(record.key)
                ]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_mutations_bump_generation(self, kind):
        store = create_store(kind, 2, 0)
        assert store.generation == 0
        record = Record((0.5, 0.5), "x")
        store.add(record)
        assert store.generation == 1
        store.remove(record)
        assert store.generation == 2

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_remove_missing_returns_false_without_generation_bump(self, kind):
        store = create_store(kind, 2, 0)
        store.add(Record((0.5, 0.5)))
        generation = store.generation
        assert store.remove(Record((0.1, 0.1))) is False
        assert store.generation == generation  # nothing changed


@pytest.mark.skipif(not npstore.HAVE_NUMPY, reason="numpy not installed")
class TestNumpyStore:
    def test_bulk_rows_never_materialize_records(self, rng):
        import numpy as np

        points = np.array([[rng.random(), rng.random()] for _ in range(50)])
        rows = npstore.rows_from_matrix(points, 2)
        store = create_store("numpy", 2, 0, rows)
        assert store._records is None  # columns-only mode
        lows, highs = (0.2, 0.2), (0.8, 0.8)
        got = store.matching(lows, highs)
        expected = [
            Record((float(x), float(y)))
            for x, y in points
            if 0.2 <= x <= 0.8 and 0.2 <= y <= 0.8
        ]
        assert got == expected

    def test_batch_interleave_matches_scalar(self, rng):
        import numpy as np

        points = np.array([[rng.random(), rng.random()] for _ in range(64)])
        for depth in (0, 1, 7, 16):
            batched = npstore.batch_interleave(points, depth)
            scalar = [
                interleave((float(x), float(y)), depth) for x, y in points
            ]
            assert batched == scalar

    def test_validate_columns_rejects_out_of_range(self):
        import numpy as np

        with pytest.raises(Exception):
            npstore.validate_columns([np.array([0.5, 1.0])])
        with pytest.raises(Exception):
            npstore.validate_columns([np.array([-0.1, 0.5])])


class TestNumpyFallback:
    def test_missing_numpy_degrades_to_columnar(self, monkeypatch):
        monkeypatch.setattr(npstore, "HAVE_NUMPY", False)
        monkeypatch.setattr(npstore, "_warned_missing", False)
        with pytest.warns(RuntimeWarning, match="numpy"):
            store = create_store("numpy", 2, 0)
        assert store.kind == "columnar"
        # IndexConfig(store="numpy") stays valid — the backend degrades,
        # the config does not reject.
        assert IndexConfig(store="numpy").store == "numpy"


class TestCodec:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_roundtrip_bit_identical(self, kind, rng):
        bucket = LeafBucket("0010", 2, _records(rng, 2, 30), store=kind)
        data = codec.encode_bucket(bucket)
        assert data[:4] == codec.CODEC_MAGIC
        assert len(data) == codec.encoded_bucket_size(bucket)
        back = codec.decode_bucket(data)
        assert back.label == bucket.label
        assert back.records == bucket.records  # floats bit-identical

    def test_all_none_values_skip_the_pickle_section(self):
        points = LeafBucket(
            "00", 2, [Record((0.25, 0.75)), Record((0.5, 0.5))]
        )
        tagged = LeafBucket(
            "00", 2, [Record((0.25, 0.75), "a"), Record((0.5, 0.5), "b")]
        )
        assert codec.encoded_bucket_size(points) < codec.encoded_bucket_size(
            tagged
        )

    def test_pickle_frames_carry_codec_bytes(self, rng):
        bucket = LeafBucket("001", 2, _records(rng, 2, 8))
        blob = pickle.dumps(bucket, protocol=pickle.HIGHEST_PROTOCOL)
        assert codec.CODEC_MAGIC in blob  # __reduce__ embeds the codec
        clone = pickle.loads(blob)
        assert clone == bucket
        query = Region((0.0, 0.0), (1.0, 1.0))
        assert clone.matching(query) == bucket.matching(query)

    def test_truncated_and_bad_magic_rejected(self, rng):
        data = codec.encode_bucket(LeafBucket("00", 2, _records(rng, 2, 4)))
        with pytest.raises(codec.CodecError):
            codec.decode_bucket(b"XXXX" + data[4:])
        with pytest.raises(codec.CodecError):
            codec.decode_bucket(data[: len(data) // 2])

    def test_numpy_bucket_decodes_without_numpy(self, rng, monkeypatch):
        bucket = LeafBucket("00", 2, _records(rng, 2, 12), store="numpy")
        data = codec.encode_bucket(bucket)
        monkeypatch.setattr(npstore, "HAVE_NUMPY", False)
        monkeypatch.setattr(npstore, "_warned_missing", True)
        back = codec.decode_bucket(data)
        assert back.records == bucket.records


class TestByteAccountingAgreement:
    """Sim and service substrates price the same trace identically."""

    def _trace(self):
        rng = __import__("random").Random(11)
        trace = []
        for index in range(12):
            bucket = LeafBucket(
                "00", 2, _records(rng, 2, rng.randrange(0, 25))
            )
            trace.append((f"key-{index:02d}", bucket))
        return trace

    @staticmethod
    def _primitive_bytes(stats, put_type, get_type):
        by_type = stats.bytes_per_type
        return {
            "put": by_type.get(put_type, 0),
            "put:reply": by_type.get(put_type + ":reply", 0),
            "get": by_type.get(get_type, 0),
            "get:reply": by_type.get(get_type + ":reply", 0),
        }

    def _service_counts(self, trace):
        from repro.runtime import RuntimeConfig, create_dht

        with create_dht(RuntimeConfig(kind="asyncio", n_peers=1)) as dht:
            for key, bucket in trace:
                dht.put(key, bucket)
            for key, _ in trace:
                dht.get(key)
            stats = dht.network.stats
            return (
                self._primitive_bytes(stats, "put", "get"),
                stats.payload_bytes,
            )

    def _sim_counts(self, trace):
        from repro.dht.chord import ChordDht

        dht = ChordDht.build(1)
        for key, bucket in trace:
            dht.put(key, bucket)
        for key, _ in trace:
            dht.get(key)
        stats = dht.network.stats
        return (
            self._primitive_bytes(stats, "store_put", "store_get"),
            stats.payload_bytes,
        )

    def test_sim_and_service_bytes_agree_on_a_put_get_trace(self):
        trace = self._trace()
        sim_bytes, sim_payload = self._sim_counts(trace)
        svc_bytes, svc_payload = self._service_counts(trace)
        assert sim_payload > 0
        assert all(value > 0 for value in sim_bytes.values())
        # Both substrates price each primitive's request and reply with
        # the shared codec, so the data-plane frame bytes agree to the
        # byte.  (Total bytes_sent additionally carries the simulated
        # overlay's routing rpc replies, which a wire client does not
        # send — the per-type split is the comparable surface.)
        assert sim_bytes == svc_bytes
        assert sim_payload == svc_payload

    def test_payload_bytes_are_codec_exact(self):
        from repro.dht.chord import ChordDht

        trace = self._trace()
        dht = ChordDht.build(4)
        for key, bucket in trace:
            dht.put(key, bucket)
        expected = sum(
            codec.encoded_bucket_size(bucket) for _, bucket in trace
        )
        assert dht.network.stats.payload_bytes == expected


class TestBucketStoreSelection:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_bucket_adopts_configured_backend(self, kind, rng):
        bucket = LeafBucket(root_label(2), 2, store=kind)
        resolved = "columnar" if (
            kind == "numpy" and not npstore.HAVE_NUMPY
        ) else kind
        assert bucket.store.kind == resolved
        for record in _records(rng, 2, 30):
            bucket.add(record)
        query = Region((0.2, 0.2), (0.8, 0.8))
        assert bucket.matching(query) == bucket.matching_naive(query)

    def test_records_property_reflects_store(self, rng):
        bucket = LeafBucket(root_label(2), 2, store="numpy")
        record = Record((0.3, 0.7), "v")
        bucket.add(record)
        assert bucket.records == [record]
        bucket.remove(record)
        assert bucket.records == []
