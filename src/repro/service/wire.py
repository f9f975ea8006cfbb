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

import pickle
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any

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
    """Frame opcodes: the five Dht primitives, the dissemination-plane
    extensions, and the two replies.

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
    CONTAINS = 5
    MCAST = 6
    PUSH = 7
    REPLY_OK = 32
    REPLY_ERR = 33


#: Requests carry (key, value); replies carry their result payload.
REQUEST_OPS = (Op.LOOKUP, Op.GET, Op.PUT, Op.REMOVE, Op.CONTAINS)


@dataclass(frozen=True, slots=True)
class Frame:
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
    if len(payload) > MAX_PAYLOAD:
        raise WireError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit"
        )
    header = HEADER.pack(MAGIC, VERSION, int(op), request_id, len(payload))
    return header + payload


def encode_request(
    op: Op, request_id: int, key: str, value: Any = None
) -> bytes:
    """Frame one primitive request (``value`` only meaningful for put)."""
    if op not in REQUEST_OPS:
        raise WireError(f"opcode {op!r} is not a request")
    return encode_frame(op, request_id, (key, value))


def encode_reply(request_id: int, result: Any) -> bytes:
    """Frame a successful reply."""
    return encode_frame(Op.REPLY_OK, request_id, result)


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
    return encode_frame(Op.REPLY_ERR, request_id, (type(error).__name__, message))


def rebuild_error(body: Any) -> Exception:
    """Inverse of :func:`encode_error` on the client side."""
    from repro.common import errors

    name, message = body
    cls = getattr(errors, name, None)
    if isinstance(cls, type) and issubclass(cls, errors.ReproError):
        return cls(message)
    return WireError(f"peer error {name}: {message}")


def decode_frame(data: bytes) -> Frame:
    """Decode exactly one frame from *data* (surplus bytes rejected)."""
    frames, leftover = _split_frames(data)
    if len(frames) != 1 or leftover:
        raise WireError(
            f"expected exactly one frame, got {len(frames)} plus "
            f"{len(leftover)} leftover byte(s)"
        )
    return frames[0]


def _split_frames(data: bytes) -> tuple[list[Frame], bytes]:
    frames: list[Frame] = []
    view = memoryview(data)
    while len(view) >= HEADER.size:
        magic, version, op, request_id, length = HEADER.unpack_from(view)
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
        if len(view) < HEADER.size + length:
            break
        payload = view[HEADER.size : HEADER.size + length]
        try:
            body = pickle.loads(payload)
        except Exception as exc:  # pickle raises many concrete types
            raise WireError(f"undecodable frame payload: {exc}") from exc
        try:
            opcode = Op(op)
        except ValueError as exc:
            raise WireError(f"unknown opcode {op}") from exc
        frames.append(Frame(opcode, request_id, body))
        view = view[HEADER.size + length :]
    return frames, bytes(view)


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
        frames, self._buffer = _split_frames(self._buffer + data)
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
    second time, and that price does not look at its contents.
    """
    data = data_wire_size(value)
    payload = data if data else estimate_wire_size(value)
    return HEADER.size + len(key.encode()) + payload, data
