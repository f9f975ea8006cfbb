"""Struct-packed record/bucket codec and the unified byte accounting.

One frame layout for a bucket on the wire::

    +-------+---------+------+----------+------------+-------+-------+
    | magic | version | dims | store id | leaf label | count | flags |
    | 4 B   | 1 B     | 1 B  | 1+k B    | 2+l B      | 4 B   | 1 B   |
    +-------+---------+------+----------+------------+-------+-------+
    | column-major float64 coordinates: dims * count * 8 B           |
    | [pickled values tuple, only when flags bit 0 is set]           |
    +----------------------------------------------------------------+

Coordinates travel as little-endian IEEE doubles — the exact floats
the record store holds, so a decoded bucket answers queries
bit-identically.  Payloads (record values) are pickled only when at
least one is non-None; bulk-loaded point sets pay one flag byte.

This codec is also the **byte-accounting contract**: the same
:func:`payload_wire_size` prices a stored object on every substrate —
the simulated overlays charge it on ``store_put``/``store_get``
messages, ``SimNetwork`` prices replies with it, and the service
plane's :func:`repro.service.wire.frame_wire_cost` builds on it via
:func:`repro.dht.api.estimate_wire_size` — so ``bytes_sent`` is
comparable between a simulated and a TCP run of the same trace.  The
module installs itself as the wire model at import time (the registry
indirection in :mod:`repro.dht.api` exists only to keep the dependency
graph acyclic: ``dht`` must not import ``core`` at module level).
"""

from __future__ import annotations

import pickle
import struct
import sys
from array import array
from typing import Any

from repro.common.errors import ReproError
from repro.common.labels import check_label
from repro.dht import api as dht_api
from repro.core.store import Rows, create_store

__all__ = [
    "CODEC_MAGIC",
    "encode_bucket",
    "decode_bucket",
    "decode_store",
    "encoded_bucket_size",
    "payload_wire_size",
    "data_wire_size",
]

CODEC_MAGIC = b"mLB1"
CODEC_VERSION = 1

#: magic + version + dims + kind-length + label-length + count + flags.
_FIXED_BYTES = 4 + 1 + 1 + 1 + 2 + 4 + 1
_HEAD = struct.Struct("!4sBBB")
_FLAG_VALUES = 1


class CodecError(ReproError):
    """An encoded bucket is malformed (bad magic, version, or length)."""


def _column_bytes(column) -> bytes:
    """Little-endian raw doubles of one coordinate column."""
    if hasattr(column, "astype"):  # numpy ndarray
        return column.astype("<f8", copy=False).tobytes()
    if not isinstance(column, array):
        column = array("d", column)
    if sys.byteorder == "little":
        return column.tobytes()
    swapped = array("d", column)
    swapped.byteswap()
    return swapped.tobytes()


def _column_from_bytes(data: bytes, numpy_kind: bool):
    if numpy_kind:
        from repro.core import npstore

        if npstore.HAVE_NUMPY:
            import numpy as np

            return np.frombuffer(data, dtype="<f8").astype(
                np.float64, copy=True
            )
    column = array("d")
    column.frombytes(data)
    if sys.byteorder != "little":
        column.byteswap()
    return column


def _values_blob(store) -> bytes:
    values = store.payload_values()
    if values is None:
        return b""
    return pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)


def encode_bucket(bucket) -> bytes:
    """Serialize *bucket* (label, store kind, columns, values).

    A bucket whose contents are unchanged since they were last encoded
    or decoded answers with those same bytes (its generation-tagged
    memo); only a mutated bucket packs its columns, and that encoding
    becomes the new memo."""
    data = bucket.encoded_memo()
    if data is not None:
        return data
    store = bucket.store
    generation = store.generation
    kind = store.kind.encode("ascii")
    label = bucket.label.encode("ascii")
    rows = store.to_rows()
    values_blob = _values_blob(store)
    flags = _FLAG_VALUES if values_blob else 0
    parts = [
        _HEAD.pack(CODEC_MAGIC, CODEC_VERSION, bucket.dims, len(kind)),
        kind,
        struct.pack("!H", len(label)),
        label,
        struct.pack("!IB", len(rows), flags),
    ]
    parts.extend(_column_bytes(column) for column in rows.columns)
    if values_blob:
        parts.append(values_blob)
    data = b"".join(parts)
    bucket.remember_encoding(data, generation)
    return data


def _parse_header(data: bytes) -> tuple[int, str, str, int, int, int]:
    """``(dims, kind, label, count, flags, offset of the columns)`` of
    an encoded bucket, with the label checked
    (:class:`~repro.common.errors.InvalidLabelError`) and every declared
    length checked against the buffer: whatever passes can be cut into
    columns and a values blob without running off the end."""
    if len(data) < _FIXED_BYTES or data[:4] != CODEC_MAGIC:
        raise CodecError("not an encoded bucket (bad magic or truncated)")
    _, version, dims, kind_len = _HEAD.unpack_from(data)
    if version != CODEC_VERSION:
        raise CodecError(f"unsupported bucket codec version {version}")
    try:
        offset = _HEAD.size
        kind = data[offset : offset + kind_len].decode("ascii")
        offset += kind_len
        (label_len,) = struct.unpack_from("!H", data, offset)
        offset += 2
        label = data[offset : offset + label_len].decode("ascii")
        offset += label_len
        count, flags = struct.unpack_from("!IB", data, offset)
        offset += 5
    except (struct.error, UnicodeDecodeError) as exc:
        raise CodecError(f"encoded bucket header is malformed: {exc}") from exc
    check_label(label, dims)
    surplus = len(data) - (offset + dims * count * 8)
    if surplus < 0:
        raise CodecError("encoded bucket truncated in its column section")
    if bool(flags & _FLAG_VALUES) != (surplus > 0):
        raise CodecError(
            f"encoded bucket has {surplus} byte(s) after its columns, "
            f"flags say {flags:#x}"
        )
    return dims, kind, label, count, flags, offset


def decode_bucket(data: bytes):
    """Inverse of :func:`encode_bucket`, lazily.

    The header is validated here (magic, version, label, declared
    lengths against the buffer) and answers ``label`` / ``region`` /
    ``load`` on its own; the record store is built by
    :func:`decode_store` on the bucket's first use of it, and until a
    mutation *data* stays the bucket's encoding."""
    from repro.core.bucket import LeafBucket

    data = bytes(data)
    dims, _, label, count, _, _ = _parse_header(data)
    return LeafBucket.from_encoded(label, dims, count, data)


def decode_store(data: bytes, sort_dim: int):
    """The record store an encoded bucket holds — the deferred half of
    :func:`decode_bucket`.  Rebuilds the same store kind (degrading per
    the registry, e.g. numpy -> columnar when numpy is unavailable);
    columns are copied out of *data*, never views of it.  A values blob
    that does not unpickle to one value per record raises
    :class:`CodecError` here, at first touch."""
    dims, kind, _, count, flags, offset = _parse_header(data)
    column_bytes = count * 8
    columns = []
    for _ in range(dims):
        columns.append(
            _column_from_bytes(
                data[offset : offset + column_bytes], kind == "numpy"
            )
        )
        offset += column_bytes
    values = None
    if flags & _FLAG_VALUES:
        try:
            values = pickle.loads(data[offset:])
            n_values = len(values)
        except Exception as exc:  # pickle raises many concrete types
            raise CodecError(
                f"encoded bucket values are undecodable: {exc}"
            ) from exc
        if n_values != count:
            raise CodecError(
                f"{n_values} values for {count} encoded records"
            )
    return create_store(kind, dims, sort_dim, Rows(dims, columns, values))


def encoded_bucket_size(bucket) -> int:
    """``len(encode_bucket(bucket))`` without packing the columns: the
    memo's length while it is valid, arithmetic over the store
    otherwise."""
    data = bucket.encoded_memo()
    if data is not None:
        return len(data)
    store = bucket.store
    return (
        _FIXED_BYTES
        + len(store.kind)
        + len(bucket.label)
        + bucket.dims * store.count * 8
        + len(_values_blob(store))
    )


# ----------------------------------------------------------------------
# The shared byte-accounting model
# ----------------------------------------------------------------------


def _record_like(records) -> bool:
    """True for a list of key/value records (possibly empty)."""
    return isinstance(records, list) and (
        not records
        or (hasattr(records[0], "key") and hasattr(records[0], "value"))
    )


def _record_list_size(value, records) -> int:
    """Codec-shaped size of a records-carrying node that is not a
    :class:`~repro.core.bucket.LeafBucket` (the PHT/DST baselines):
    same fixed framing, per-record column bytes and payload pickle."""
    dims = len(records[0].key) if records else 0
    name = getattr(value, "prefix", "") or ""
    size = _FIXED_BYTES + len(name) + dims * len(records) * 8
    if any(record.value is not None for record in records):
        size += len(
            pickle.dumps(
                tuple(record.value for record in records),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
    return size


def _row_bytes(value: Any) -> int | None:
    """Codec bytes of a row-bearing object (a leaf bucket, a baseline
    trie node); ``None`` for anything else."""
    sizer = getattr(value, "encoded_wire_size", None)
    if callable(sizer):
        return sizer()
    records = getattr(value, "records", None)
    if _record_like(records):
        return _record_list_size(value, records)
    return None


def payload_wire_size(value: Any) -> int:
    """Bytes *value* occupies as a message payload.

    Row-bearing objects (leaf buckets, baseline trie nodes) are priced
    by the codec exactly; ``None`` is free (an absent reply body); any
    other object costs one envelope
    (:data:`~repro.dht.api.ENVELOPE_WIRE_BYTES`).
    """
    if value is None:
        return 0
    size = _row_bytes(value)
    return dht_api.ENVELOPE_WIRE_BYTES if size is None else size


def data_wire_size(value: Any) -> int:
    """Data-plane bytes of *value*: codec bytes for row-bearing objects,
    zero for control payloads — feeds ``NetworkStats.payload_bytes``."""
    if value is None:
        return 0
    return _row_bytes(value) or 0


dht_api.install_wire_model(payload_wire_size, data_wire_size)
