"""The framed wire protocol service peers speak.

One message = one frame::

    +--------+---------+--------+------------+-------------+---------+
    | magic  | version | opcode | request id | payload len | payload |
    | 4 B    | 1 B     | 1 B    | 4 B        | 4 B         | ...     |
    +--------+---------+--------+------------+-------------+---------+

The header is struct-packed big-endian; the payload's layout is fixed
by the opcode, and nothing in it is pickled on the index's path:

==========================  ============================================
opcode                      payload
==========================  ============================================
``LOOKUP``/``GET``/         key (UTF-8, the whole payload)
``REMOVE``
``PUT``/``REWRITE``         packed key, value
``APPEND``                  packed key, one codec row
                            (:func:`~repro.core.codec.encode_row`)
``REPLY_OK``                value
``REPLY_ERR``               error class name packed as a key, message
``MCAST``/``PUSH``          the *extension* kind: a pickled body
==========================  ============================================

A key (a label, or a ``sub:`` key) is UTF-8; packed ahead of more
bytes, it is a ``!H`` length and the UTF-8.  A value is one kind byte
and its bytes: ``None``, ``False`` and ``True`` are the kind byte
alone, a string (a peer name) is UTF-8, a leaf bucket is its codec
bytes verbatim — :func:`~repro.core.codec.encode_bucket` (the memo)
out, :func:`~repro.core.codec.decode_bucket` (lazy) in — and anything
else is the *pickled value* kind.  The two pickled kinds are the documented
exceptions: a pickled value is what plain ``Dht.put`` users and the
continuous plane's subscription tables store, and what an ``MCAST``
reply aggregates; the extension kind carries the dissemination plane's
``MCAST``/``PUSH`` bodies.  Index traffic reaches neither.  The whole
header is checked before any payload byte is read, so a frame of
another version is refused without being decoded.

Frames are self-delimiting, so a byte stream (an asyncio TCP
connection) is cut into messages by :class:`FrameDecoder` with no
sentinel scanning, and the in-process transport hands one whole frame
to the peer it serves.  The durable log
(:class:`~repro.dht.durable.AppendLogBackend`) is a stream of the same
request frames, cut by :func:`split_frame`.

Byte accounting deliberately has two faces:

* ``len(encode_frame(...))`` — the bytes actually crossing a socket;
* :func:`frame_wire_sizes` — the *modelled* size used for
  ``NetworkStats.bytes_sent``: :func:`repro.net.message.message_sizes`,
  the one function every runtime prices a message with (its header is
  :data:`HEADER`'s size), so byte counters stay comparable across
  runtimes.

The two meet in one place: a key-only request (:data:`KEY_ONLY_OPS`)
is the header and the key's UTF-8, which is exactly what
``message_sizes(key)`` charges, so the service runtime prices such a
frame by its length, from the key bytes framing already encoded.  Any
other request is priced by :func:`frame_wire_sizes` when it is sent,
and a reply by ``message_sizes`` of the value it decoded to; one
``NetworkStats`` update books the exchange
(``repro.service.node.ServiceDht._settle``).
"""

from __future__ import annotations

import functools
import pickle
import struct
from enum import IntEnum
from typing import Any, NamedTuple

from repro.common.errors import ReproError
from repro.core.bucket import LeafBucket
from repro.core.codec import decode_bucket, encode_bucket
from repro.net.message import message_sizes

#: Frame header: magic, version, opcode, request id, payload length.
HEADER = struct.Struct("!4sBBII")
MAGIC = b"mLGT"
VERSION = 2

#: Refuse absurd frames instead of allocating attacker-sized buffers.
MAX_PAYLOAD = 64 * 1024 * 1024

#: A packed key's length prefix.
_KEY_LEN = struct.Struct("!H")

#: Value kinds: the first byte of an encoded value.
_NONE, _FALSE, _TRUE, _TEXT, _BUCKET, _PICKLED = range(6)
_CONSTANTS = {_NONE: None, _FALSE: False, _TRUE: True}
_NONE_BYTES, _FALSE_BYTES, _TRUE_BYTES = b"\x00", b"\x01", b"\x02"
_TEXT_BYTE, _BUCKET_BYTE, _PICKLED_BYTE = b"\x03", b"\x04", b"\x05"


class WireError(ReproError):
    """A frame violated the protocol (bad magic, version, length or
    body)."""


class Op(IntEnum):
    """Frame opcodes: the Dht primitives, the dissemination-plane
    extensions, and the two replies.

    ``REWRITE`` puts ``(key, value)`` only where *key* is stored and
    ``APPEND`` — body ``(key, row)`` — adds one record, a codec row, to
    the bucket stored there; each answers ``False`` for an absent key,
    in the same frame, so no request can land between the check and
    the write.

    ``MCAST`` carries one prefix-multicast subquery — body
    ``(target_label, subquery, query)`` — answered with the subtree's
    aggregated ``(records, visited, rounds, unresolved)``.  ``PUSH``
    is dual-use: as a request it asks a subscription-table owner to
    deliver to a client; with ``request_id == 0`` it is the
    *unsolicited* server-to-client delivery frame itself (the one
    direction the request/reply protocol otherwise lacks).
    """

    LOOKUP = 1
    GET = 2
    PUT = 3
    REMOVE = 4
    MCAST = 6
    PUSH = 7
    APPEND = 8
    REWRITE = 9
    REPLY_OK = 32
    REPLY_ERR = 33


#: Requests carry (key, value) — every opcode but the replies and the
#: extensions, each named after the peer op it asks for, so a new peer
#: op travels once it has an ``Op`` value — and replies carry their
#: result payload.
REQUEST_OPS = tuple(
    op for op in Op if op not in (Op.MCAST, Op.PUSH, Op.REPLY_OK, Op.REPLY_ERR)
)
_REQUESTS = frozenset(REQUEST_OPS)
#: Requests whose body is the key alone: the frame is the header and
#: the key's UTF-8.
KEY_ONLY_OPS = frozenset((Op.LOOKUP, Op.GET, Op.REMOVE))


class Frame(NamedTuple):
    """One decoded wire message."""

    op: Op
    request_id: int
    body: Any

    @property
    def is_reply(self) -> bool:
        return self.op in (Op.REPLY_OK, Op.REPLY_ERR)


# ----------------------------------------------------------------------
# Bodies
# ----------------------------------------------------------------------


def pack_frame(op: int, request_id: int, payload: bytes) -> bytes:
    """Header + *payload*, refused past :data:`MAX_PAYLOAD`."""
    length = len(payload)
    if length > MAX_PAYLOAD:
        raise WireError(
            f"payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit"
        )
    return HEADER.pack(MAGIC, VERSION, op, request_id, length) + payload


def pack_key(key: str) -> bytes:
    """A key's body bytes: its UTF-8 length, then the UTF-8."""
    label = key.encode()
    if len(label) > 0xFFFF:
        raise WireError(f"key of {len(label)} bytes is too long for a frame")
    return _KEY_LEN.pack(len(label)) + label


def split_key(buffer: bytes, start: int, end: int) -> tuple[str, int]:
    """The key packed at *start* of a body ending at *end*, and the
    offset past it."""
    if end - start < _KEY_LEN.size:
        raise WireError("frame body too short for its key")
    (length,) = _KEY_LEN.unpack_from(buffer, start)
    start += _KEY_LEN.size
    stop = start + length
    if stop > end:
        raise WireError("key runs past the end of its frame")
    return buffer[start:stop].decode(), stop


def encode_value(value: Any) -> bytes:
    """One value as a frame (or a journal record) carries it: its kind
    byte, then its bytes — a bucket's codec bytes verbatim."""
    if value is None:
        return _NONE_BYTES
    if value is True:
        return _TRUE_BYTES
    if value is False:
        return _FALSE_BYTES
    cls = type(value)
    if cls is LeafBucket:
        return _BUCKET_BYTE + encode_bucket(value)
    if cls is str:
        return _TEXT_BYTE + value.encode()
    # The pickled-value kind, one of the two documented exceptions: a
    # value that is not a bucket (a subscription table, a plain
    # ``Dht.put`` user's object, an ``MCAST`` reply).
    return _PICKLED_BYTE + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode_value(data) -> Any:
    """Inverse of :func:`encode_value`; a bucket comes back lazy."""
    return _value_at(data, 0, len(data))


def _value_at(buffer: bytes, start: int, end: int) -> Any:
    if start >= end:
        raise WireError("empty value")
    kind = buffer[start]
    start += 1
    if kind == _BUCKET:
        return decode_bucket(buffer[start:end])
    if kind in _CONSTANTS and start == end:
        return _CONSTANTS[kind]
    if kind == _TEXT:
        return buffer[start:end].decode()
    if kind == _PICKLED:
        # The pickled-value kind: one of the two documented exceptions
        # (see encode_value); no bucket, key or row travels this way.
        return pickle.loads(buffer[start:end])
    raise WireError(f"malformed value of kind {kind}")


def _key_body(buffer: bytes, start: int, end: int) -> tuple[str, None]:
    return buffer[start:end].decode(), None


def _value_body(buffer: bytes, start: int, end: int) -> tuple[str, Any]:
    key, stop = split_key(buffer, start, end)
    return key, _value_at(buffer, stop, end)


def _row_body(buffer: bytes, start: int, end: int) -> tuple[str, bytes]:
    key, stop = split_key(buffer, start, end)
    return key, buffer[stop:end]


def _error_body(buffer: bytes, start: int, end: int) -> tuple[str, str]:
    name, stop = split_key(buffer, start, end)
    return name, buffer[stop:end].decode()


def _extension_body(buffer: bytes, start: int, end: int) -> Any:
    # The extension kind, the other documented exception: the bodies of
    # the dissemination plane's MCAST and PUSH frames.
    return pickle.loads(buffer[start:end])


#: Body decoder per opcode: ``(buffer, payload start, end) -> body``.
_BODIES = {
    **dict.fromkeys(REQUEST_OPS, _value_body),
    **dict.fromkeys(KEY_ONLY_OPS, _key_body),
    Op.APPEND: _row_body,
    Op.REPLY_OK: _value_at,
    Op.REPLY_ERR: _error_body,
    Op.MCAST: _extension_body,
    Op.PUSH: _extension_body,
}


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


def encode_frame(op: Op, request_id: int, body: Any) -> bytes:
    """Pack one message; *body* is what decoding gives back for *op*:
    ``(key, value)`` for a request (an ``APPEND``'s value is its row
    bytes), the result value for ``REPLY_OK``, ``(error name,
    message)`` for ``REPLY_ERR`` and any picklable object for an
    extension opcode."""
    if op is _REPLY_OK:  # every plain exchange's reply: one test
        return pack_frame(op, request_id, encode_value(body))
    if op in _REQUESTS:
        key, value = body
        if op in KEY_ONLY_OPS:
            if value is not None:
                raise WireError(f"a {Op(op).name} request carries no value")
            return pack_frame(op, request_id, key.encode())
        if op is _APPEND:  # the value is one codec row
            return pack_frame(op, request_id, pack_key(key) + value)
        return pack_frame(op, request_id, pack_key(key) + encode_value(value))
    if op is _REPLY_ERR:
        name, message = body
        return pack_frame(op, request_id, pack_key(name) + message.encode())
    # The extension kind: an MCAST or PUSH body (see _extension_body).
    return pack_frame(
        op, request_id, pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
    )


def encode_request(
    op: Op, request_id: int, key: str, value: Any = None
) -> bytes:
    """Frame one primitive request (``value`` only meaningful for put,
    rewrite and append)."""
    if op not in _REQUESTS:
        raise WireError(f"opcode {op!r} is not a request")
    return encode_frame(op, request_id, (key, value))


def encode_reply(request_id: int, result: Any) -> bytes:
    """Frame a successful reply."""
    return encode_frame(_REPLY_OK, request_id, result)


def encode_error(request_id: int, error: Exception) -> bytes:
    """Frame a failed reply.

    The error's *class* travels by name with its message, never as an
    object: the receiving side rebuilds a known library error (or a
    :class:`WireError` for anything unrecognised), so a peer can never
    make a client decode arbitrary exception state.
    """
    if len(error.args) == 1 and isinstance(error.args[0], str):
        # str() on a KeyError subclass repr-quotes its message; the
        # bare argument is the human-readable text either way.
        message = error.args[0]
    else:
        message = str(error)
    return encode_frame(_REPLY_ERR, request_id, (type(error).__name__, message))


def rebuild_error(body: Any) -> Exception:
    """Inverse of :func:`encode_error` on the client side."""
    from repro.common import errors

    name, message = body
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, errors.ReproError):
        return cls(message)
    return WireError(f"peer error {name}: {message}")


#: Opcode byte to :class:`Op`, without an enum call per frame.
_OPS = {int(op): op for op in Op}

#: Read per frame: module globals, since an ``Op`` attribute read costs
#: more than packing a header.
_APPEND, _REPLY_OK, _REPLY_ERR = Op.APPEND, Op.REPLY_OK, Op.REPLY_ERR

#: ``Frame`` from one ``(op, request_id, body)`` tuple, skipping the
#: Python-level ``__new__`` of a named tuple.
_new_frame = functools.partial(tuple.__new__, Frame)


def decode_frame(data: bytes) -> Frame:
    """Decode exactly one frame from *data* (surplus bytes rejected), in
    one pass: the header checked once (:func:`split_frame`), then the
    opcode's body decoder."""
    cut = split_frame(data, 0) if len(data) >= HEADER.size else None
    if cut is None or cut[3] != len(data):
        end = 0 if cut is None else cut[3]
        raise WireError(
            f"expected exactly one frame, got {int(cut is not None)} "
            f"plus {len(data) - end} leftover byte(s)"
        )
    return _frame(data, cut)


def _frame(buffer: bytes, cut: tuple[Op, int, int, int]) -> Frame:
    """The frame :func:`split_frame` cut from *buffer*: its opcode's body
    decoder run on the payload.  A malformed body raises
    :class:`WireError`."""
    opcode, request_id, start, end = cut
    try:
        body = _BODIES[opcode](buffer, start, end)
    except Exception as exc:  # a body decoder raises many concrete types
        raise WireError(f"undecodable frame payload: {exc}") from exc
    return _new_frame((opcode, request_id, body))


def split_frame(buffer: bytes, offset: int) -> tuple[Op, int, int, int] | None:
    """``(opcode, request id, payload start, payload end)`` of the frame
    whose header starts at *offset* of *buffer*, or ``None`` while its
    payload is incomplete.  The
    whole header — magic, version, declared length, opcode — is checked
    before any payload byte is read; a violation raises
    :class:`WireError`."""
    magic, version, op, request_id, length = HEADER.unpack_from(buffer, offset)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {bytes(magic)!r}")
    if version != VERSION:
        raise WireError(
            f"unsupported protocol version {version} (speaking "
            f"{VERSION})"
        )
    if length > MAX_PAYLOAD:
        raise WireError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit"
        )
    opcode = _OPS.get(op)
    if opcode is None:
        raise WireError(f"unknown opcode {op}")
    start = offset + HEADER.size
    end = start + length
    if len(buffer) < end:
        return None
    return opcode, request_id, start, end


class FrameDecoder:
    """Incremental decoder for a byte stream of frames.

    Feed it whatever chunk sizes the transport produces; it buffers
    partial frames and yields each message exactly once, in order.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = b""

    def feed(self, data: bytes) -> list[Frame]:
        """Absorb *data*, returning every frame completed by it."""
        data = self._buffer + data
        frames: list[Frame] = []
        offset = 0
        while len(data) - offset >= HEADER.size:
            # split_frame refuses a bad header before its payload arrives.
            cut = split_frame(data, offset)
            if cut is None:
                break
            frames.append(_frame(data, cut))
            offset = cut[3]
        self._buffer = data[offset:]
        return frames


def frame_wire_sizes(
    op: Op, key: str = "", value: Any = None
) -> tuple[int, int]:
    """``(modelled frame bytes, data-plane bytes)`` of one message:
    :func:`~repro.net.message.message_sizes`, the byte model the
    simulated substrates charge too, so ``bytes_sent`` for a trace
    agrees between a simulated and a TCP run.  Only an ``APPEND`` value
    depends on the opcode: it is one record's codec row, priced as its
    bytes."""
    if op is _APPEND:
        data = len(value)
        return message_sizes(key)[0] + data, data
    return message_sizes(key, value)
