"""The service plane: asyncio peers, a wire protocol, a load generator.

This package is the "system under real load" counterpart of the
simulated substrates: :class:`~repro.service.node.ServiceDht` serves
every peer on one asyncio event loop (optionally behind a real TCP
listener) speaking the length-prefixed framed protocol of
:mod:`repro.service.wire`, and :mod:`repro.service.loadgen` replays
mixed workloads against it at a target QPS with open-loop latency
percentiles.  Construction goes through
:func:`repro.runtime.create_dht`; everything above the
:class:`~repro.dht.api.Dht` facade is untouched.
"""

from repro.service.node import ServiceDht, ServiceTransport, WallClock
from repro.service.wire import (
    Frame,
    FrameDecoder,
    Op,
    WireError,
    decode_frame,
    encode_error,
    encode_reply,
    encode_request,
    frame_wire_cost,
)
#: Resolved lazily: the load generator leans on repro.experiments
#: (table rendering) and repro.runtime (the factory), both of which may
#: import this package first.
_LAZY = ("LoadReport", "run_load", "build_loaded_index")


def __getattr__(name: str):
    if name in _LAZY:
        from repro.service import loadgen

        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ServiceDht",
    "ServiceTransport",
    "WallClock",
    "Frame",
    "FrameDecoder",
    "Op",
    "WireError",
    "decode_frame",
    "encode_error",
    "encode_reply",
    "encode_request",
    "frame_wire_cost",
    "LoadReport",
    "run_load",
    "build_loaded_index",
]
