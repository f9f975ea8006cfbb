"""The framed wire protocol service peers speak.

One message = one frame::

    +--------+---------+--------+------------+-------------+---------+
    | magic  | version | opcode | request id | payload len | payload |
    | 4 B    | 1 B     | 1 B    | 4 B        | 4 B         | ...     |
    +--------+---------+--------+------------+-------------+---------+

The header is struct-packed big-endian; the payload is a pickled
``(key, value)`` request body or a reply body.  Frames are
self-delimiting, so a byte stream (an asyncio TCP connection) is cut
into messages by :class:`FrameDecoder` with no sentinel scanning, and
the in-process transport hands one whole frame to the peer it serves.

Byte accounting deliberately has two faces:

* ``len(encode_frame(...))`` — the bytes actually crossing a socket
  (pickle is an implementation detail of this runtime);
* :func:`frame_wire_sizes` — the *modelled* size used for
  ``NetworkStats.bytes_sent``, built from the same
  :func:`~repro.dht.api.estimate_wire_size` accounting (the codec's
  sizes) the simulated substrates charge, so byte counters stay
  comparable across runtimes.
"""

from __future__ import annotations

import functools
import pickle
import struct
from enum import IntEnum
from typing import Any, NamedTuple

from repro.common.errors import ReproError
from repro.dht.api import data_wire_size, estimate_wire_size

#: Frame header: magic, version, opcode, request id, payload length.
HEADER = struct.Struct("!4sBBII")
MAGIC = b"mLGT"
VERSION = 1

#: Refuse absurd frames instead of allocating attacker-sized buffers.
MAX_PAYLOAD = 64 * 1024 * 1024


class WireError(ReproError):
    """A frame violated the protocol (bad magic, version, or length)."""


class Op(IntEnum):
    """Frame opcodes: the Dht primitives, the dissemination-plane
    extensions, and the two replies.

    ``REWRITE`` puts ``(key, value)`` only where *key* is stored and
    ``APPEND`` — body ``(key, (point, value))`` — adds one record to the
    bucket stored there; each answers ``False`` for an absent key, in
    the same frame, so no request can land between the check and the
    write.

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


#: Requests carry (key, value); replies carry their result payload.
REQUEST_OPS = (Op.LOOKUP, Op.GET, Op.PUT, Op.REMOVE, Op.APPEND, Op.REWRITE)


class Frame(NamedTuple):
    """One decoded wire message."""

    op: Op
    request_id: int
    body: Any

    @property
    def is_reply(self) -> bool:
        return self.op in (Op.REPLY_OK, Op.REPLY_ERR)


def encode_frame(op: Op, request_id: int, body: Any) -> bytes:
    """Pack one message into header + pickled payload bytes."""
    payload = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
    length = len(payload)
    if length > MAX_PAYLOAD:
        raise WireError(
            f"payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit"
        )
    return HEADER.pack(MAGIC, VERSION, op, request_id, length) + payload


def encode_request(
    op: Op, request_id: int, key: str, value: Any = None
) -> bytes:
    """Frame one primitive request (``value`` only meaningful for put)."""
    if op not in REQUEST_OPS:
        raise WireError(f"opcode {op!r} is not a request")
    return encode_frame(op, request_id, (key, value))


def encode_reply(request_id: int, result: Any) -> bytes:
    """Frame a successful reply."""
    return encode_frame(_REPLY_OK, request_id, result)


def encode_error(request_id: int, error: Exception) -> bytes:
    """Frame a failed reply.

    The error's *class* travels by name with its message, never as a
    pickled object: the receiving side rebuilds a known library error
    (or a :class:`WireError` for anything unrecognised), so a peer can
    never make a client unpickle arbitrary exception state.
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
    """Decode exactly one frame from *data* (surplus bytes rejected)."""
    frame, end = frame_at(data, 0) if len(data) >= HEADER.size else (None, 0)
    if frame is None or end != len(data):
        raise WireError(
            f"expected exactly one frame, got {int(frame is not None)} "
            f"plus {len(data) - end} leftover byte(s)"
        )
    return frame


def frame_at(buffer, offset: int) -> tuple[Frame | None, int]:
    """The frame whose header starts at *offset* of *buffer* (bytes, or
    a memoryview over a stream) and the offset past it, or ``(None,
    offset)`` while its payload is incomplete.  The whole header —
    magic, version, declared length, opcode — is checked before any
    payload byte is unpickled; a violation raises :class:`WireError`."""
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
    end = offset + HEADER.size + length
    if len(buffer) < end:
        return None, offset
    try:
        body = pickle.loads(buffer[end - length : end])
    except Exception as exc:  # pickle raises many concrete types
        raise WireError(f"undecodable frame payload: {exc}") from exc
    return _new_frame((opcode, request_id, body)), end


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
        view, offset = memoryview(data), 0
        while len(view) - offset >= HEADER.size:
            frame, offset = frame_at(view, offset)
            if frame is None:
                break
            frames.append(frame)
        self._buffer = data[offset:]
        return frames


def frame_wire_sizes(
    op: Op, key: str = "", value: Any = None
) -> tuple[int, int]:
    """``(modelled frame bytes, data-plane bytes)`` of one message,
    sizing *value* once.

    The frame is header plus the key's own bytes plus the value's
    payload size — the same :func:`~repro.dht.api.estimate_wire_size`
    accounting the simulated substrates charge (exact encoded bytes for
    record-bearing payloads, one envelope for control payloads), applied
    to the real protocol so ``bytes_sent`` for a trace agrees between a
    simulated and a TCP run.  A value with data-plane bytes is all data
    (the wire model's contract), so only a control payload is priced a
    second time, and that price does not look at its contents.  An
    ``APPEND`` body is one record's codec bytes: its coordinates, plus
    its pickled value when it has one.  A ``None`` value costs nothing.
    """
    if value is None:
        return HEADER.size + len(key.encode()), 0
    if op is _APPEND:
        point, payload = value
        data = 8 * len(point)
        if payload is not None:
            data += len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        return HEADER.size + len(key.encode()) + data, data
    data = data_wire_size(value)
    payload = data if data else estimate_wire_size(value)
    return HEADER.size + len(key.encode()) + payload, data
