"""A bucket's codec bytes: memoised per generation, decoded lazily.

The contract: ``encode_bucket`` never returns bytes that differ from a
fresh encoding of the bucket's current contents, whatever happened to
the bucket in between; ``decode_bucket`` validates the header and
leaves the record store unbuilt until something needs records.
"""

from __future__ import annotations

import copy
import os
import pickle
import struct
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.geometry import Region
from repro.common.labels import root_label
from repro.core import bucket as bucket_module
from repro.core import codec
from repro.core import store as store_module
from repro.core.bucket import LeafBucket
from repro.core.records import Record
from repro.core.split import ThresholdSplit

BACKENDS = ["columnar", "numpy"]


def _records(rng, dims, count):
    return [
        Record(tuple(rng.random() for _ in range(dims)), index)
        for index in range(count)
    ]


def _fresh_encoding(bucket) -> bytes:
    """What a bucket that was never encoded or decoded — no memo —
    holding the same records in the same store kind encodes to."""
    twin = LeafBucket(
        bucket.label, bucket.dims, list(bucket.records),
        store=bucket.store.kind,
    )
    assert twin.encoded_memo() is None
    return codec.encode_bucket(twin)


class TestMemoInvalidation:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_unmutated_bucket_reuses_its_bytes(self, kind, rng):
        bucket = LeafBucket("001", 2, _records(rng, 2, 9), store=kind)
        first = codec.encode_bucket(bucket)
        assert codec.encode_bucket(bucket) is first
        assert bucket.encoded_wire_size() == len(first)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_add_and_remove_invalidate(self, kind, rng):
        records = _records(rng, 2, 9)
        bucket = LeafBucket("001", 2, records, store=kind)
        before = codec.encode_bucket(bucket)
        bucket.add(Record((0.5, 0.5), "new"))
        assert bucket.encoded_memo() is None
        grown = codec.encode_bucket(bucket)
        assert grown != before and grown == _fresh_encoding(bucket)
        assert bucket.remove(records[0])
        assert bucket.encoded_memo() is None
        assert codec.encode_bucket(bucket) == _fresh_encoding(bucket)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_equal_count_remove_then_add_invalidates(self, kind, rng):
        records = _records(rng, 2, 9)
        bucket = LeafBucket("001", 2, records, store=kind)
        before = codec.encode_bucket(bucket)
        bucket.remove(records[3])
        bucket.add(Record((0.25, 0.75), "swapped"))
        assert bucket.load == len(records)
        after = codec.encode_bucket(bucket)
        assert len(after) != 0 and after != before
        assert after == _fresh_encoding(bucket)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_direct_store_mutation_invalidates(self, kind, rng):
        bucket = LeafBucket("001", 2, _records(rng, 2, 9), store=kind)
        before = codec.encode_bucket(bucket)
        bucket.store.add(Record((0.125, 0.875), "behind the bucket's back"))
        assert bucket.encoded_memo() is None
        assert bucket.encoded_wire_size() == len(_fresh_encoding(bucket))
        after = codec.encode_bucket(bucket)
        assert after != before and after == _fresh_encoding(bucket)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_failed_remove_keeps_the_memo(self, kind, rng):
        bucket = LeafBucket("001", 2, _records(rng, 2, 4), store=kind)
        before = codec.encode_bucket(bucket)
        assert not bucket.remove(Record((0.9, 0.9), "absent"))
        assert codec.encode_bucket(bucket) is before

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_decoded_bucket_mutated_after_first_touch(self, kind, rng):
        data = codec.encode_bucket(
            LeafBucket("001", 2, _records(rng, 2, 6), store=kind)
        )
        bucket = codec.decode_bucket(data)
        assert codec.encode_bucket(bucket) is data  # store never built
        assert len(bucket.records) == 6             # built, unmutated
        assert codec.encode_bucket(bucket) is data
        bucket.add(Record((0.5, 0.25), None))
        assert codec.encode_bucket(bucket) == _fresh_encoding(bucket)

    def test_sizing_never_encodes(self, rng, monkeypatch):
        bucket = LeafBucket("001", 2, _records(rng, 2, 9))
        monkeypatch.setattr(
            codec, "_column_bytes",
            lambda column: pytest.fail("sizing packed a column"),
        )
        size = bucket.encoded_wire_size()
        assert bucket.encoded_memo() is None
        monkeypatch.undo()
        assert size == len(codec.encode_bucket(bucket))


    @pytest.mark.parametrize("kind", BACKENDS)
    def test_sizing_and_encoding_pickle_payloads_once(
        self, kind, rng, monkeypatch
    ):
        """Each simulated put/get prices the bucket it carries: an
        unmutated valued bucket sized twice and encoded once must pickle
        its payloads once, and once more after each mutation."""
        bucket = LeafBucket("001", 2, _records(rng, 2, 9), store=kind)
        dumps = pickle.dumps
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", counting)
        sizes = [bucket.encoded_wire_size(), bucket.encoded_wire_size()]
        data = codec.encode_bucket(bucket)
        assert sizes == [len(data)] * 2
        assert len(calls) == 1
        bucket.add(Record((0.5, 0.5), "new"))
        assert bucket.encoded_wire_size() == len(codec.encode_bucket(bucket))
        assert len(calls) == 2
        monkeypatch.undo()
        assert codec.encode_bucket(bucket) == _fresh_encoding(bucket)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 2**20), st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 2**20)),
        st.tuples(st.just("store-add"), st.integers(0, 2**20)),
        st.tuples(st.just("encode")),
        st.tuples(st.just("roundtrip")),
    ),
    max_size=24,
)


class TestMemoProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(BACKENDS),
        dims=st.integers(1, 4),
        ops=_OPS,
    )
    def test_encoding_always_equals_a_fresh_one(self, kind, dims, ops):
        bucket = LeafBucket(root_label(dims), dims, store=kind)

        def key_of(seed):
            # Dyadic coordinates: exact in binary, inside [0, 1).
            return tuple(
                ((seed >> (5 * dim)) % 32) / 32 for dim in range(dims)
            )

        for op in ops:
            if op[0] == "add":
                bucket.add(Record(key_of(op[1]), op[1] if op[2] else None))
            elif op[0] == "store-add":
                bucket.store.add(Record(key_of(op[1])))
            elif op[0] == "remove":
                if bucket.load:
                    bucket.remove(bucket.records[op[1] % bucket.load])
            elif op[0] == "roundtrip":
                bucket = codec.decode_bucket(codec.encode_bucket(bucket))
            data = codec.encode_bucket(bucket)
            assert data == _fresh_encoding(bucket)
            assert bucket.encoded_wire_size() == len(data)
            assert codec.decode_bucket(data) == bucket


class TestLazyDecode:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_header_answers_build_no_store(self, kind, rng, store_builds):
        original = LeafBucket("0011", 2, _records(rng, 2, 7), store=kind)
        data = codec.encode_bucket(original)
        store_builds.clear()
        bucket = codec.decode_bucket(data)
        assert bucket.label == "0011" and bucket.dims == 2
        assert bucket.region == original.region
        assert bucket.covers((0.75, 0.5)) == original.covers((0.75, 0.5))
        assert bucket.load == 7 and not bucket.is_empty
        assert bucket.split_dim == original.split_dim
        assert bucket.encoded_wire_size() == len(data)
        assert codec.encode_bucket(bucket) is data
        assert pickle.loads(pickle.dumps(bucket)).load == 7
        assert store_builds == []
        assert bucket.records == original.records  # first touch builds
        assert store_builds == [kind]
        assert bucket.store is bucket.store
        assert bucket.matching(Region((0.0, 0.0), (1.0, 1.0))) == (
            original.records
        )
        assert store_builds == [kind]  # built once

    def test_a_fetched_leaf_parses_and_checks_its_header_once(
        self, rng, monkeypatch
    ):
        """``decode_bucket`` and the first ``matching`` after it: one
        header parse, one label check (the parent commit made 2 and 3)."""
        data = codec.encode_bucket(LeafBucket("0011", 2, _records(rng, 2, 9)))
        parses, checks = [], []
        parse, check = codec._parse_header, codec.check_label

        def counting_parse(data):
            parses.append(len(data))
            return parse(data)

        def counting_check(label, dims):
            checks.append(label)
            check(label, dims)

        monkeypatch.setattr(codec, "_parse_header", counting_parse)
        for module in (codec, bucket_module):
            monkeypatch.setattr(module, "check_label", counting_check)
        bucket = codec.decode_bucket(data)
        assert len(bucket.matching(Region((0.0, 0.0), (1.0, 1.0)))) == 9
        assert (len(parses), checks) == (1, ["0011"])

    def test_empty_decoded_bucket_is_empty_without_a_store(
        self, store_builds
    ):
        data = codec.encode_bucket(LeafBucket("001", 2))
        store_builds.clear()
        bucket = codec.decode_bucket(data)
        assert bucket.is_empty and bucket.load == 0
        assert store_builds == []

    def test_numpy_store_does_not_alias_the_bytes(self, rng):
        pytest.importorskip("numpy")
        data = codec.encode_bucket(
            LeafBucket("001", 2, _records(rng, 2, 5), store="numpy")
        )
        bucket = codec.decode_bucket(data)
        for column in bucket.store.to_rows().columns:
            assert column.flags.owndata and column.flags.writeable


class TestColumnForm:
    """A leaf that arrives as codec bytes is its columns: a range match
    builds a Record per hit, a non-splitting insert none at all."""

    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("valued", [False, True], ids=["keys", "values"])
    def test_fetched_leaf_builds_no_record_for_a_non_hit_row(
        self, kind, valued, rng, monkeypatch
    ):
        records = [
            Record(record.key, record.value if valued else None)
            for record in _records(rng, 2, 100)
        ]
        label = root_label(2)
        data = codec.encode_bucket(
            LeafBucket(label, 2, records, store=kind)
        )
        target = records[37]
        new = Record((0.5, 0.25), "new" if valued else None)
        built = []
        init = Record.__init__
        build = store_module.build_records

        def counting(self, key, value=None):
            built.append(key)
            init(self, key, value)

        def counting_build(keys, values=None):
            keys = list(keys)
            built.extend(keys)
            return build(keys, values)

        # Both seams: the dataclass constructor and the one that builds
        # a store's (or a byte match's) hits.
        monkeypatch.setattr(Record, "__init__", counting)
        monkeypatch.setattr(store_module, "build_records", counting_build)
        bucket = codec.decode_bucket(data)
        hits = bucket.matching(Region(target.key, target.key))
        bucket.add(new)
        encoded = codec.encode_bucket(bucket)
        plan = ThresholdSplit(200).plan_split(
            label, bucket.store.rows_or_records(), 2, 28
        )
        monkeypatch.undo()
        assert hits == [target]
        assert built == [target.key]  # the hit's Record, nothing else
        assert plan is None
        fresh = LeafBucket(label, 2, records + [new], store=kind)
        assert encoded == codec.encode_bucket(fresh)
        assert bucket == fresh


class TestByteMatchBuilds:
    """A leaf that is still its bytes matches from them once; a second
    match builds its store (straight to the snapshot), and later ones
    reuse it."""

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_first_match_builds_none_second_one_third_none(
        self, kind, rng, store_builds
    ):
        records = _records(rng, 2, 78)
        data = codec.encode_bucket(LeafBucket("001", 2, records, store=kind))
        bucket = codec.decode_bucket(data)
        query = Region((0.0, 0.25), (0.5, 0.75))
        expected = [r for r in records if query.contains_point_closed(r.key)]
        store_builds.clear()
        assert bucket.matching(query) == expected
        assert store_builds == []
        assert bucket.matching(query) == expected
        assert store_builds == [kind]
        assert bucket.matching(query) == expected
        assert store_builds == [kind]
        assert codec.encode_bucket(bucket) is data  # nothing mutated

    @pytest.mark.parametrize("transport", ["asyncio", "tcp"])
    def test_service_range_query_builds_no_store(
        self, make_dht, store_builds, transport
    ):
        from repro.common.config import IndexConfig
        from repro.core.bulkload import bulk_load
        from repro.core.index import MLightIndex

        dht = make_dht(kind=transport, n_peers=4)
        config = IndexConfig(runtime=transport)
        rng = __import__("random").Random(35)
        points = [(rng.random(), rng.random()) for _ in range(300)]
        bulk_load(dht, points[:250], config)
        index = MLightIndex(dht, config)
        index.insert_many([(point, "v") for point in points[250:]])
        store_builds.clear()
        found = index.range_query(((0.125, 0.25), (0.75, 0.875)))
        assert found.complete and len(found.records) > 0
        assert store_builds == []
        assert sorted(r.key for r in found.records) == sorted(
            p for p in points
            if 0.125 <= p[0] <= 0.75 and 0.25 <= p[1] <= 0.875
        )

    def test_big_endian_hosts_copy_the_columns_out(self, rng, monkeypatch):
        """Where native doubles are big-endian the byte match reads its
        columns through ``_column_from_bytes`` (which swaps them), not
        a cast of the little-endian bytes."""
        records = _records(rng, 3, 20)
        data = codec.encode_bucket(LeafBucket(root_label(3), 3, records))
        read = []

        def little_endian_copy(chunk):
            read.append(len(chunk))
            column = codec.array("d")
            column.frombytes(chunk)
            return column

        monkeypatch.setattr(codec, "sys", SimpleNamespace(byteorder="big"))
        monkeypatch.setattr(codec, "_column_from_bytes", little_endian_copy)
        query = Region((0.0, 0.0, 0.0), (0.75, 0.5, 1.0))
        got = codec.decode_bucket(data).matching(query)
        monkeypatch.undo()
        assert read == [3 * 20 * 8]
        assert got == [r for r in records if query.contains_point_closed(r.key)]


class TestConcurrentFirstTouch:
    def test_racing_threads_end_up_with_one_store(self, rng):
        """A peer-resident bucket is reachable from the event-loop
        thread and from client threads (the ``items()`` oracle): however
        their first touches interleave, everyone must hold the same
        store, or one side's mutation would be lost to the other, and
        the adds to its columns must not interleave within a row."""
        data = codec.encode_bucket(LeafBucket("001", 2, _records(rng, 2, 64)))
        workers = 4 * (os.cpu_count() or 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                bucket = codec.decode_bucket(data)
                barrier = threading.Barrier(workers)
                seen = []

                def touch():
                    barrier.wait(timeout=10)
                    store = bucket.store
                    ident = threading.get_ident()
                    store.add(Record((0.5, (ident % 997) / 997), ident))
                    seen.append(store)

                threads = [
                    threading.Thread(target=touch) for _ in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert len(seen) == workers
                assert all(store is bucket.store for store in seen)
                assert bucket.load == 64 + workers  # no add was lost
                # Each row landed whole: every key with its own value.
                for record in bucket.records[64:]:
                    assert record.key == (0.5, (record.value % 997) / 997)
        finally:
            sys.setswitchinterval(interval)


class TestCorruption:
    def _encoded(self, rng, **kwargs):
        return codec.encode_bucket(
            LeafBucket("001", 2, _records(rng, 2, 6), **kwargs)
        )

    def _without_values(self, rng):
        """Header and columns of an encoded 6-record bucket, values flag
        set, with the pickled values ``(0, ..., 5)`` cut off."""
        data = self._encoded(rng)
        values = pickle.dumps(
            tuple(range(6)), protocol=pickle.HIGHEST_PROTOCOL
        )
        assert data.endswith(values)
        return data[: -len(values)]

    def test_header_corruption_rejected_at_decode(self, rng):
        data = self._encoded(rng)
        with pytest.raises(codec.CodecError, match="magic"):
            codec.decode_bucket(b"XXXX" + data[4:])
        with pytest.raises(codec.CodecError, match="version"):
            codec.decode_bucket(data[:4] + b"\x09" + data[5:])
        with pytest.raises(codec.CodecError):
            codec.decode_bucket(data[:10])  # inside the header
        with pytest.raises(codec.CodecError, match="column"):
            codec.decode_bucket(data[:40])  # inside the columns

    def test_unknown_store_kind_rejected_at_decode(self, rng):
        """A garbled kind string is a malformed header, like a bad magic
        or version, not a bucket that fails at its first use."""
        data = self._encoded(rng)
        assert data.count(b"columnar") == 1
        with pytest.raises(codec.CodecError, match="columnaz"):
            codec.decode_bucket(data.replace(b"columnar", b"columnaz"))

    def test_declared_count_is_checked_against_the_buffer(self, rng):
        points = codec.encode_bucket(
            LeafBucket("001", 2, [Record((0.5, 0.5)), Record((0.25, 0.5))])
        )
        count_at = len(points) - 2 * 2 * 8 - 5
        assert struct.unpack_from("!I", points, count_at) == (2,)
        inflated = (
            points[:count_at] + struct.pack("!I", 3) + points[count_at + 4:]
        )
        with pytest.raises(codec.CodecError):
            codec.decode_bucket(inflated)
        with pytest.raises(codec.CodecError, match="after its columns"):
            codec.decode_bucket(points + b"junk")  # no values flag

    def test_corrupt_values_blob_raises_at_first_touch(self, rng):
        mangled = self._without_values(rng) + b"\x80not a pickle"
        bucket = codec.decode_bucket(mangled)  # header is intact
        assert bucket.label == "001" and bucket.load == 6
        with pytest.raises(codec.CodecError, match="values"):
            bucket.records
        with pytest.raises(codec.CodecError):  # and again: nothing stuck
            bucket.matching(Region((0.0, 0.0), (1.0, 1.0)))

    def test_wrong_value_count_raises_at_first_touch(self, rng):
        short = self._without_values(rng) + pickle.dumps(
            (0, 1), protocol=pickle.HIGHEST_PROTOCOL
        )
        bucket = codec.decode_bucket(short)
        with pytest.raises(codec.CodecError, match="2 values for 6"):
            bucket.store


class TestCopiesAndHandoff:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_deepcopy_is_equal_and_independent(self, kind, rng):
        bucket = LeafBucket("001", 2, _records(rng, 2, 8), store=kind)
        clone = copy.deepcopy(bucket)
        assert clone == bucket and clone.store.kind == bucket.store.kind
        clone.add(Record((0.5, 0.5), "only in the clone"))
        assert clone.load == bucket.load + 1
        assert codec.encode_bucket(bucket) == _fresh_encoding(bucket)
        assert codec.encode_bucket(clone) == _fresh_encoding(clone)

    def test_deepcopy_of_a_lazy_bucket_builds_no_store(
        self, rng, store_builds
    ):
        data = codec.encode_bucket(LeafBucket("001", 2, _records(rng, 2, 8)))
        lazy = codec.decode_bucket(data)
        store_builds.clear()
        clone = copy.deepcopy(lazy)
        assert clone.load == 8 and store_builds == []
        assert clone == lazy
