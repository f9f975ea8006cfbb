"""Tests for records, leaf buckets and the encoded local tree."""

import pytest

from repro.common.errors import InvalidLabelError, InvalidPointError
from repro.common.geometry import Region
from repro.common.labels import branch_nodes_between, parent, virtual_root
from repro.core.bucket import LeafBucket
from repro.core.keys import bucket_key, name_from_key
from repro.core.records import Record


class TestRecord:
    def test_make_validates(self):
        record = Record.make([0.1, 0.2], "v", dims=2)
        assert record.key == (0.1, 0.2)
        assert record.value == "v"
        assert record.dims == 2

    def test_make_rejects_bad_points(self):
        with pytest.raises(InvalidPointError):
            Record.make((0.1,), dims=2)
        with pytest.raises(InvalidPointError):
            Record.make((0.1, 1.5), dims=2)

    def test_hashable_and_equal(self):
        assert Record((0.1, 0.2), "v") == Record((0.1, 0.2), "v")
        assert len({Record((0.1, 0.2)), Record((0.1, 0.2))}) == 1


class TestBucketRecords:
    def test_add_and_load(self):
        bucket = LeafBucket("001", 2)
        bucket.add(Record((0.5, 0.5)))
        assert bucket.load == 1
        assert not bucket.is_empty

    def test_add_outside_cell_rejected(self):
        bucket = LeafBucket("0010", 2)  # x in [0, 0.5)
        with pytest.raises(InvalidLabelError):
            bucket.add(Record((0.7, 0.1)))

    def test_remove(self):
        bucket = LeafBucket("001", 2)
        record = Record((0.5, 0.5), "v")
        bucket.add(record)
        assert bucket.remove(record)
        assert not bucket.remove(record)

    def test_matching_uses_closed_query(self):
        bucket = LeafBucket("001", 2)
        bucket.add(Record((0.5, 0.5)))
        bucket.add(Record((0.7, 0.7)))
        hits = bucket.matching(Region((0.4, 0.4), (0.5, 0.5)))
        assert [record.key for record in hits] == [(0.5, 0.5)]

    def test_invalid_label_rejected(self):
        with pytest.raises(InvalidLabelError):
            LeafBucket("01", 2)


class TestLocalTree:
    """The label store encodes the whole local tree (Section 3.3):
    the label algebra reads it off ``bucket.label`` alone."""

    def test_ancestors(self):
        bucket = LeafBucket("001101", 2)
        label, chain = bucket.label, []
        while label != virtual_root(2):
            label = parent(label, 2)
            chain.append(label)
        assert chain == ["00110", "0011", "001", "00"]

    def test_branch_nodes(self):
        bucket = LeafBucket("001101", 2)
        assert branch_nodes_between(bucket.label, "001", 2) == [
            "0010", "00111", "001100",
        ]

    def test_descendant_check(self):
        bucket = LeafBucket("001101", 2)
        assert bucket.label.startswith("0011")
        assert bucket.label.startswith("001101")
        assert not bucket.label.startswith("0010")

    def test_region_and_covers(self):
        bucket = LeafBucket("0010", 2)
        assert bucket.region == Region((0.0, 0.0), (0.5, 1.0))
        assert bucket.covers((0.49, 0.99))
        assert not bucket.covers((0.5, 0.0))


class TestKeys:
    def test_roundtrip(self):
        assert name_from_key(bucket_key("00101")) == "00101"

    def test_reject_foreign_keys(self):
        with pytest.raises(ValueError):
            name_from_key("pht:001")
