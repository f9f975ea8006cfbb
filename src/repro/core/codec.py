"""Struct-packed record/bucket codec.

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

Its sizes are what every runtime charges: a leaf bucket prices itself
at :func:`encoded_bucket_size` (``LeafBucket.encoded_wire_size``), and
the one byte model, :func:`repro.net.message.message_sizes`, adds the
framing — so ``bytes_sent`` is comparable between a simulated and a
TCP run of the same trace.
"""

from __future__ import annotations

import pickle
import struct
import sys
from array import array
from typing import Any

from repro.common.errors import ReproError
from repro.common.labels import check_label
from repro.core import bucket as _bucket  # cyclic: used at call time only
from repro.core.store import STORES, Rows, create_store, match_columns

__all__ = [
    "CODEC_MAGIC",
    "encode_bucket",
    "decode_bucket",
    "decode_store",
    "match_encoded",
    "encode_row",
    "row_point",
    "append_row",
    "encoded_bucket_size",
    "FIXED_BYTES",
]

CODEC_MAGIC = b"mLB1"
CODEC_VERSION = 1

#: magic + version + dims + kind-length + label-length + count + flags.
FIXED_BYTES = 4 + 1 + 1 + 1 + 2 + 4 + 1
_HEAD = struct.Struct("!4sBBB")
_LABEL_LEN = struct.Struct("!H")
_COUNT = struct.Struct("!IB")
_FLAG_VALUES = 1
#: Store kind per its encoded name: a known kind is one dict read.
_KINDS = {kind.encode("ascii"): kind for kind in STORES}


class CodecError(ReproError):
    """An encoded bucket is malformed (bad magic, version, store kind or
    length)."""


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


def _column_from_bytes(data: bytes) -> array:
    column = array("d")
    column.frombytes(data)
    if sys.byteorder != "little":
        column.byteswap()
    return column


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
    values_blob = store.values_blob()
    flags = _FLAG_VALUES if values_blob else 0
    parts = [
        _HEAD.pack(CODEC_MAGIC, CODEC_VERSION, bucket.dims, len(kind)),
        kind,
        _LABEL_LEN.pack(len(label)),
        label,
        _COUNT.pack(len(rows), flags),
    ]
    parts.extend(_column_bytes(column) for column in rows.columns)
    if values_blob:
        parts.append(values_blob)
    data = b"".join(parts)
    bucket.remember_encoding(data, generation)
    return data


def _parse_header(data: bytes) -> tuple[int, str, str, int, int, int]:
    """``(dims, kind, label, count, flags, offset of the columns)`` of
    an encoded bucket, read with precompiled structs, with the store
    kind and the label checked
    (:class:`~repro.common.errors.InvalidLabelError`) and every declared
    length checked against the buffer: whatever passes can be cut into
    columns and a values blob without running off the end."""
    if len(data) < FIXED_BYTES:
        magic = None
    else:
        magic, version, dims, kind_len = _HEAD.unpack_from(data)
    if magic != CODEC_MAGIC:
        raise CodecError("not an encoded bucket (bad magic or truncated)")
    if version != CODEC_VERSION:
        raise CodecError(f"unsupported bucket codec version {version}")
    offset = _HEAD.size + kind_len
    kind_name = data[_HEAD.size : offset]
    kind = _KINDS.get(kind_name)
    if kind is None:
        raise CodecError(f"encoded bucket has unknown store kind {kind_name!r}")
    try:
        (label_len,) = _LABEL_LEN.unpack_from(data, offset)
        offset += _LABEL_LEN.size
        label = data[offset : offset + label_len].decode("ascii")
        offset += label_len
        count, flags = _COUNT.unpack_from(data, offset)
        offset += _COUNT.size
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

    The header is validated here (magic, version, store kind, label,
    declared lengths against the buffer) and answers ``label`` / ``region`` /
    ``load`` on its own; the record store is built by
    :func:`decode_store` on the bucket's first use of it, and until a
    mutation *data* stays the bucket's encoding.  The bucket keeps this
    one parse (its label checked here, once) for the store build."""
    data = bytes(data)
    header = _parse_header(data)
    dims, _, label, count, _, _ = header
    return _bucket.LeafBucket.from_encoded(label, dims, count, data, header)


def decode_store(data: bytes, sort_dim: int, header: tuple | None = None):
    """The record store an encoded bucket holds — the deferred half of
    :func:`decode_bucket`, which hands over its *header* parse (parsed
    here when there is none).  Rebuilds the same store kind (degrading per
    ``STORES``, e.g. numpy -> columnar when numpy is unavailable) in
    its column form: one ``frombytes`` per column, copied out of *data*
    (never a view of it), and no :class:`~repro.core.records.Record`
    per row — the store builds those for query hits, or all of them
    when asked for its records.  A values blob that does not unpickle
    to one value per record raises :class:`CodecError` here, at first
    touch."""
    dims, kind, _, count, flags, offset = header or _parse_header(data)
    column_bytes = count * 8
    columns = []
    for _ in range(dims):
        columns.append(
            _column_from_bytes(data[offset : offset + column_bytes])
        )
        offset += column_bytes
    values = _values_at(data, offset, count) if flags & _FLAG_VALUES else None
    return create_store(kind, dims, sort_dim, Rows(dims, columns, values))


def match_encoded(
    data: bytes, header: tuple | None, sort_dim: int, lows, highs
) -> list:
    """The records of encoded bucket *data* inside the closed box
    (*lows*, *highs*), in insertion order: what ``decode_store(data,
    sort_dim, header).matching(lows, highs)`` answers, without building
    the store.  The columns are read where they lie (one ``memoryview``
    cast; copied out only on a big-endian host), the store's own filter
    (:func:`~repro.core.store.match_columns`) runs over them and builds
    a Record per hit.  No ``STORES`` lookup, no column copy, no numpy
    call, whatever the store kind: the kind only matters to a built
    store.  The values blob is unpickled whenever the flags say there is
    one, so a garbled blob raises :class:`CodecError` here, at first
    touch, as the build does."""
    dims, _, _, count, flags, offset = header or _parse_header(data)
    end = offset + dims * count * 8
    values = _values_at(data, end, count) if flags & _FLAG_VALUES else None
    if sys.byteorder == "little":
        cells = memoryview(data)[offset:end].cast("d")
    else:
        cells = _column_from_bytes(data[offset:end])
    columns = [cells[dim * count : (dim + 1) * count] for dim in range(dims)]
    return match_columns(columns, values, sort_dim, lows, highs)


def _values_at(data: bytes, offset: int, count: int) -> tuple:
    """The payload tuple pickled at *offset*, one value per record."""
    try:
        values = pickle.loads(data[offset:])
        n_values = len(values)
    except Exception as exc:  # pickle raises many concrete types
        raise CodecError(f"encoded bucket values are undecodable: {exc}") from exc
    if n_values != count:
        raise CodecError(f"{n_values} values for {count} encoded records")
    return values


def encode_row(point, value: Any) -> bytes:
    """One record as an ``APPEND`` frame and the journal carry it, and
    as :meth:`~repro.core.bucket.LeafBucket.add` splices it into a
    bucket's bytes: its coordinates as little-endian doubles (the bytes
    its column cells hold), then its payload pickled, only when it has
    one."""
    row = struct.pack(f"<{len(point)}d", *point)
    if value is None:
        return row
    return row + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def row_point(row: bytes, dims: int) -> tuple:
    """The coordinates of a *dims*-dimensional :func:`encode_row` row."""
    if len(row) < dims * 8:
        raise CodecError(f"a {len(row)}-byte row holds no {dims}-d point")
    return struct.unpack_from(f"<{dims}d", row)


def append_row(
    data: bytes, row: bytes, header: tuple | None = None
) -> tuple[bytes, tuple]:
    """*data*, an encoded bucket, with the :func:`encode_row` *row*
    appended, and the header of the result (in :func:`_parse_header`'s
    form; *header* is that of *data*, parsed here when there is none).

    The one splice of a record into a bucket's bytes: a peer's stored
    copy (``LeafBucket.appended``, also journal replay) and a client's
    fetched leaf (``LeafBucket.add`` while no store is built) both take
    it.  Byte-identical to :func:`encode_bucket` of a fresh bucket with
    the same records, with no store built and no column packed: the
    count goes up by one, each column takes its 8 bytes of the row, and
    the values section is re-pickled only when the bucket or the row
    carries a value."""
    dims, kind, label, count, flags, offset = header or _parse_header(data)
    column_bytes = count * 8
    values_at = offset + dims * column_bytes
    blob = row[dims * 8 :]
    if flags & _FLAG_VALUES:
        values = _values_at(data, values_at, count) + (_row_value(blob),)
    elif blob:
        values = (None,) * count + (_row_value(blob),)
    else:
        values = None
    flags = _FLAG_VALUES if values is not None else 0
    parts = [data[: offset - _COUNT.size], _COUNT.pack(count + 1, flags)]
    for dim in range(dims):
        start = offset + dim * column_bytes
        parts.append(data[start : start + column_bytes])
        parts.append(row[dim * 8 : dim * 8 + 8])
    if values is not None:
        parts.append(pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL))
    appended = b"".join(parts)
    return appended, (dims, kind, label, count + 1, flags, offset)


def _row_value(blob: bytes) -> Any:
    """The payload pickled behind a row's coordinates (None: none)."""
    if not blob:
        return None
    try:
        return pickle.loads(blob)
    except Exception as exc:  # pickle raises many concrete types
        raise CodecError(f"row payload is undecodable: {exc}") from exc


def encoded_bucket_size(bucket) -> int:
    """``len(encode_bucket(bucket))`` without packing the columns: the
    memo's length while it is valid, arithmetic over the store
    otherwise (plus the store's values blob, pickled once per
    generation and shared with :func:`encode_bucket`)."""
    data = bucket.encoded_memo()
    if data is not None:
        return len(data)
    store = bucket.store
    return (
        FIXED_BYTES
        + len(store.kind)
        + len(bucket.label)
        + bucket.dims * store.count * 8
        + len(store.values_blob())
    )
