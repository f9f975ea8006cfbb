"""Message envelope and the one byte model every runtime prices with.

The paper's costs are DHT-lookups and records moved; bytes only check
that the substrates agree with each other.  They agree because one
function prices every message: :func:`message_sizes` — the simulated
overlays' requests, :class:`~repro.net.simnet.SimNetwork`'s replies and
the service runtime's frames (:func:`repro.service.wire.frame_wire_sizes`)
all call it.  A row-bearing value (a leaf bucket, a baseline trie node)
is a :class:`WireSized` and prices itself at its exact codec bytes;
``None`` is free; anything else is one envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Rough wire size of an object envelope: prices control payloads
#: (peer names, booleans) under the codec model.
ENVELOPE_WIRE_BYTES = 16

#: Bytes of per-message framing — kept equal to the service plane's
#: frame header (``repro.service.wire.HEADER.size``: magic, version,
#: opcode, request id, payload length), so simulated and TCP byte
#: counts frame messages identically.
MESSAGE_HEADER_BYTES = 14


class WireSized:
    """A value that travels as codec rows and knows its byte size."""

    __slots__ = ()

    def encoded_wire_size(self) -> int:
        """Exact codec bytes of this value — all of it data."""
        raise NotImplementedError


def message_sizes(key: str, value: Any = None) -> tuple[int, int]:
    """``(message bytes, data-plane bytes)`` of one message carrying
    *key* and *value* (a reply carries the empty key).

    The message is the framing header, the key's UTF-8 and the value:
    a :class:`WireSized` value is all data, at its codec size; ``None``
    costs nothing; any other value is one envelope of control bytes.
    """
    size = MESSAGE_HEADER_BYTES + len(key.encode())
    if value is None:
        return size, 0
    if isinstance(value, WireSized):
        data = value.encoded_wire_size()
        return size + data, data
    return size + ENVELOPE_WIRE_BYTES, 0


@dataclass(frozen=True, slots=True)
class Message:
    """One network message.

    ``size_bytes`` is the *accounted* payload size.  The index layers
    report data movement in records (as the paper does); the DHT layer
    translates that to an approximate byte size only for network-level
    accounting, so nothing depends on Python object sizes.
    """

    src: str
    dst: str
    msg_type: str
    payload: Any
    size_bytes: int = 0
