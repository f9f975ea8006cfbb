"""Labels are validated where they enter the program, and only there.

``repro.common.labels`` lists the entry points; the helpers behind them
trust their callers.  The first half feeds every entry point every
kind of malformed label; the second pins that a warmed index runs its
operations without validating a single label again.
"""

from __future__ import annotations

import struct
import sys

import pytest

from repro.common import labels
from repro.common.config import IndexConfig
from repro.common.errors import InvalidLabelError
from repro.common.geometry import Region, region_of_label
from repro.core.bucket import LeafBucket
from repro.core.bulkload import bulk_load
from repro.core.codec import CodecError, decode_bucket, encode_bucket
from repro.core.index import MLightIndex
from repro.core.keys import bucket_key
from repro.datasets.synthetic import uniform_points
from repro.mcast.service import ServiceMulticast, service_under
from repro.runtime import create_dht
from repro.service.wire import Op
from repro.workloads.queries import uniform_range_queries

DIMS = 2
WHOLE = Region((0.0, 0.0), (1.0, 1.0))

BAD_LABELS = [
    "",
    "abc",
    "0x1",
    "0",  # too short
    "011",  # wrong root for dims=2
    "00010",  # a valid 3-d label
]


def encoded_with_label(label: str) -> bytes:
    """A well-formed encoded empty bucket whose header carries *label*."""
    # magic(4) version dims kind_len | kind | !H label_len | label | ...
    data = encode_bucket(LeafBucket("001", DIMS))
    kind_len = data[6]
    label_at = 7 + kind_len
    return (
        data[:label_at]
        + struct.pack("!H", len(label))
        + label.encode("ascii")
        + data[label_at + 2 + len("001"):]
    )


ENTRIES = {
    "LeafBucket": lambda label: LeafBucket(label, DIMS),
    "from_encoded": lambda label: LeafBucket.from_encoded(
        label, DIMS, 0, encoded_with_label("001")
    ),
    "decode_bucket": lambda label: decode_bucket(encoded_with_label(label)),
    "region_of_label": lambda label: region_of_label(label, DIMS),
}


@pytest.fixture(scope="module")
def mcast_frame():
    """Send one ``MCAST`` frame targeting a label; the reply body."""
    with create_dht(kind="asyncio", n_peers=2) as dht:
        MLightIndex(dht, IndexConfig(dims=DIMS, max_depth=14))
        ServiceMulticast(dht, DIMS, 14)
        service = service_under(dht)
        yield lambda label: service.call(
            Op.MCAST, bucket_key("00"), body=(label, WHOLE, WHOLE)
        )


@pytest.mark.parametrize("label", BAD_LABELS)
@pytest.mark.parametrize("entry", [*ENTRIES, "mcast_frame"])
def test_a_malformed_label_is_rejected_where_it_enters(
    entry, label, mcast_frame
):
    enter = mcast_frame if entry == "mcast_frame" else ENTRIES[entry]
    for _ in range(2):  # a rejection is never memoised
        with pytest.raises((InvalidLabelError, CodecError)):
            enter(label)


@pytest.mark.parametrize("entry", [*ENTRIES, "mcast_frame"])
def test_a_valid_label_passes_every_entry(entry, mcast_frame):
    enter = mcast_frame if entry == "mcast_frame" else ENTRIES[entry]
    assert enter("001") is not None


def test_a_warmed_index_validates_no_label(monkeypatch):
    """Every label an operation handles is a prefix, child or sibling
    of one that was checked when it entered: replaying the same reads
    and non-splitting writes checks nothing."""
    config = IndexConfig(
        dims=DIMS, max_depth=20, split_threshold=40, merge_threshold=10
    )
    points = uniform_points(2000, dims=DIMS, seed=3)
    dht = create_dht(kind="sim", n_peers=8)
    bulk_load(dht, points, config)
    index = MLightIndex(dht, config)

    queries = uniform_range_queries(20, 0.02, dims=DIMS, seed=4)
    lookups = points[:20]
    inserts, used = [], set()
    for point in uniform_points(400, dims=DIMS, seed=5):
        bucket = index.lookup(point).bucket
        if bucket.label not in used and bucket.load + 2 <= 40:
            used.add(bucket.label)
            inserts.append(point)
        if len(inserts) == 20:
            break
    assert len(inserts) == 20

    def replay():
        for query in queries:
            index.range_query(query)
        for point in lookups:
            index.lookup(point)
        for point in inserts:
            index.insert(point)

    replay()
    leaves = index.tree_size()

    validated = []
    for name in ("check_label", "is_valid_label"):
        real = getattr(labels, name)

        def counting(label, dims, _real=real):
            validated.append(label)
            return _real(label, dims)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro.") and (
                getattr(module, name, None) is real
            ):
                monkeypatch.setattr(module, name, counting)

    replay()
    assert index.tree_size() == leaves  # the inserts split nothing
    assert validated == []
