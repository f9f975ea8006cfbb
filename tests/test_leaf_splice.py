"""An insert splices its record into the fetched leaf's bytes.

A bucket that is still its codec bytes takes ``add`` as a splice
(:func:`~repro.core.codec.append_row`, the one the leaf's owner makes):
the count goes up by one, the bytes stay what a fresh encoding of the
same records gives, and no record store is built.  The split rule reads
the load before the rows (``SplitStrategy.can_split``), so an insert
into a leaf that cannot split builds no store on the client or the
peer, and one that may split builds exactly the planner's.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import InvalidLabelError
from repro.common.geometry import Region
from repro.common.labels import root_label
from repro.core import codec
from repro.core.bucket import LeafBucket
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.core.records import Record
from repro.core.npstore import HAVE_NUMPY
from repro.core.split import DataAwareSplit, ThresholdSplit
from tests.test_codec_memo import _fresh_encoding

#: Without numpy the ``"numpy"`` kind is columnar behind a RuntimeWarning,
#: which the service tests' asyncio-debug run makes an error.
BACKENDS = [
    "columnar",
    pytest.param(
        "numpy", marks=pytest.mark.skipif(not HAVE_NUMPY, reason="no numpy")
    ),
]


def _decoded(kind, dims, count, valued, seed=0):
    """The records and a decoded (lazy) bucket of them at the root."""
    rng = random.Random(seed)
    records = [
        Record(
            tuple(rng.random() for _ in range(dims)),
            f"v{index}" if valued else None,
        )
        for index in range(count)
    ]
    data = codec.encode_bucket(
        LeafBucket(root_label(dims), dims, records, store=kind)
    )
    return records, codec.decode_bucket(data)


class TestSplicedAdd:
    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "held, new", [(False, False), (False, True), (True, False), (True, True)],
        ids=["keys", "keys+value", "values+key", "values"],
    )
    def test_add_splices_without_a_store(
        self, kind, dims, held, new, store_builds
    ):
        records, bucket = _decoded(kind, dims, 13, held, seed=dims)
        record = Record((0.5,) * dims, "new" if new else None)
        store_builds.clear()
        bucket.add(record)
        assert bucket.load == len(records) + 1
        spliced = codec.encode_bucket(bucket)
        assert store_builds == []
        assert bucket.records == records + [record]
        assert spliced == _fresh_encoding(bucket)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_adds_on_an_empty_and_a_matched_leaf(self, kind, store_builds):
        _, bucket = _decoded(kind, 2, 0, False)
        everything = Region((0.0, 0.0), (1.0, 1.0))
        assert bucket.matching(everything) == []  # from the bytes
        added = [Record((0.25, 0.75), None), Record((0.5, 0.5), 7)]
        store_builds.clear()
        for record in added:
            bucket.add(record)
        assert bucket.load == 2 and store_builds == []
        assert bucket.matching(everything) == added  # the second builds
        assert len(store_builds) == 1
        assert codec.encode_bucket(bucket) == _fresh_encoding(bucket)

    def test_a_record_outside_the_cell_is_refused_unspliced(self):
        data = codec.encode_bucket(LeafBucket("0011", 2, [Record((0.75, 0.25))]))
        bucket = codec.decode_bucket(data)
        with pytest.raises(InvalidLabelError):
            bucket.add(Record((0.25, 0.25)))
        assert bucket.load == 1 and codec.encode_bucket(bucket) is data

    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("valued", [False, True], ids=["keys", "values"])
    def test_a_reader_racing_an_add_sees_old_or_new_never_a_mix(
        self, kind, valued
    ):
        """The worst interleaving, forced: a reader thread takes the
        bytes, the add splices, then the reader takes the header."""
        records, lazy = _decoded(kind, 2, 40, valued)
        record = Record((0.5, 0.5), "new" if valued else None)
        slot = LeafBucket._encoded
        taken, spliced = threading.Event(), threading.Event()

        class PausedRead(LeafBucket):
            __slots__ = ()

            @property
            def _encoded(self):
                data = slot.__get__(self)
                if threading.current_thread() is reader:
                    taken.set()
                    spliced.wait(10)
                return data

            @_encoded.setter
            def _encoded(self, data):
                slot.__set__(self, data)

        bucket = PausedRead.from_encoded(
            lazy.label, 2, lazy.load, codec.encode_bucket(lazy), lazy._header
        )
        everything = Region((0.0, 0.0), (1.0, 1.0))
        seen = []
        reader = threading.Thread(
            target=lambda: seen.append(bucket.matching(everything))
        )
        reader.start()
        assert taken.wait(10)
        bucket.add(record)
        spliced.set()
        reader.join()
        assert seen == [records]
        assert bucket.matching(everything) == records + [record]


class TestCanSplit:
    @pytest.mark.parametrize(
        "strategy, bound",
        [(ThresholdSplit(8), 8), (DataAwareSplit(8), 8)],
        ids=["threshold", "data-aware"],
    )
    def test_the_load_alone_bounds_the_plan(self, strategy, bound):
        rng = random.Random(3)
        label = root_label(2)
        for load in range(bound + 3):
            records = [Record((rng.random(), rng.random())) for _ in range(load)]
            assert strategy.can_split(load) == (load > bound)
            if not strategy.can_split(load):
                assert strategy.plan_split(label, records, 2, 20) is None


STRATEGIES = {
    "threshold": dict(strategy="threshold", split_threshold=8, merge_threshold=4),
    "data-aware": dict(strategy="data-aware", expected_load=8),
}


class TestServiceInsert:
    """Inserts on the service runtimes, against the same inserts on
    ``sim``: no store unless the leaf may split, then the planner's."""

    @pytest.mark.parametrize("kind", BACKENDS)
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @pytest.mark.parametrize("transport", ["asyncio", "tcp"])
    def test_only_a_leaf_that_may_split_builds_a_store(
        self, make_dht, store_builds, monkeypatch, transport, strategy, kind
    ):
        settings = dict(dims=2, max_depth=16, store=kind, **STRATEGIES[strategy])
        bound = settings.get("split_threshold", settings.get("expected_load"))
        rng = random.Random(49)
        points = [(rng.random(), rng.random()) for _ in range(260)]
        indexes = {}
        for runtime in ("sim", transport):
            dht = make_dht(kind=runtime, n_peers=4)
            config = IndexConfig(runtime=runtime, **settings)
            bulk_load(dht, points[:60], config)
            indexes[runtime] = MLightIndex(dht, config)
        local, service = indexes["sim"], indexes[transport]
        decodes = []
        decode_store = codec.decode_store

        def counting(data, *rest):
            decodes.append(len(data))
            return decode_store(data, *rest)

        monkeypatch.setattr(codec, "decode_store", counting)
        crossed = 0
        for point in points[60:]:
            load = service.lookup(point).bucket.load
            leaves = service.tree_size()
            store_builds.clear()
            decodes.clear()
            service.insert(point, "v")
            built, decoded = len(store_builds), len(decodes)
            local.insert(point, "v")
            if load < bound:
                assert built == decoded == 0
            else:
                crossed += 1
                # The planner's decode, on the client; then a split
                # builds each of its leaves' buckets, survivor included.
                grown = service.tree_size() - leaves
                assert decoded == 1
                assert built == 1 + (grown + 1 if grown else 0)
        assert crossed > 0
        assert _leaves(service) == _leaves(local)
        service.check_invariants()


def _leaves(index) -> dict[str, int]:
    return {bucket.label: bucket.load for bucket in index.buckets()}
