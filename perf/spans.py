"""Per-layer tracing, recorded from the benchmark's side only.

Nothing under ``src/`` knows about these spans: :func:`install` wraps
the layers' public entry points (class attributes, and every
``repro.*`` module global that *is* the function) and
:func:`uninstall` puts the originals back.  A span is
``[name, parent, start, end, extra]``; a layer is a module name.

One operation is in flight at a time, so a span opened on another
thread (the service runtime's event loop, the sim runtime's batch
pool) with nothing open on that thread parents to the client thread's
innermost open span.  A layer's self time is its spans' duration minus
the part their child spans cover.
"""

from __future__ import annotations

import functools
import json
import pickle
import sys
import threading
import time

import repro.core.bulkload
import repro.core.codec
import repro.core.lookup
import repro.service.node
import repro.service.wire
from repro.common.geometry import Region
from repro.common.labels import packed_candidate, packed_interleave
from repro.core.bucket import LeafBucket
from repro.core.index import MLightIndex, build_strategy
from repro.core.naming import packed_naming_function
from repro.core.plane import BatchedPlane
from repro.core.rangequery import RangeQueryEngine
from repro.dht.api import Dht
from repro.dht.durable import AppendLogBackend
from repro.dht.storage import PeerStore
from repro.runtime import create_dht

from floor import REF_NOMINAL_S, reference_kernel

NAME, PARENT, START, END, EXTRA = range(5)

#: layer -> [(owner, attribute), ...]; the owner is a class or a module.
TARGETS = {
    "core.index": [
        (MLightIndex, "lookup"),
        (MLightIndex, "insert"),
        (MLightIndex, "range_query"),
    ],
    "core.lookup": [(repro.core.lookup, "lookup_point")],
    "core.rangequery": [(RangeQueryEngine, "query")],
    "core.plane": [(BatchedPlane, "get_round")],
    "dht.api": [
        (Dht, "get"),
        (Dht, "get_many_outcomes"),
        (Dht, "put"),
        (Dht, "put_many"),
        (Dht, "rewrite_local"),
        (Dht, "remove"),
    ],
    "core.store": [(LeafBucket, "matching"), (LeafBucket, "add")],
    "core.codec": [
        (repro.core.codec, "encode_bucket"),
        (repro.core.codec, "decode_bucket"),
    ],
    "core.bulkload": [(repro.core.bulkload, "bulk_load")],
    "service.wire": [
        (repro.service.wire, "encode_frame"),
        (repro.service.wire, "decode_frame"),
    ],
    "service.node": [(repro.service.node, "serve_request")],
    "dht.storage": [
        (PeerStore, "get"),
        (PeerStore, "put"),
        (PeerStore, "remove"),
    ],
    "dht.durable": [(AppendLogBackend, "record_put")],
}
LAYERS = tuple(TARGETS)

#: Layers an operation can enter (bulk_load only runs in the set-up) ...
OP_LAYERS = tuple(layer for layer in LAYERS if layer != "core.bulkload")
#: ... and those a set-up (create_dht + bulk_load + index attach) can.
SETUP_LAYERS = (
    "core.bulkload", "dht.api", "core.codec", "service.wire",
    "service.node", "dht.storage", "dht.durable",
)

#: What to keep of a call besides its time: ``name -> f(args, result)``.
_EXTRAS = {
    # (encoded bytes, records encoded)
    "encode_bucket": lambda args, result: (len(result), args[0].load),
    "encode_frame": lambda args, result: len(result),
}


def _span_name(owner, attribute: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__name__}.{attribute}"
    return attribute


LAYER_OF = {
    _span_name(owner, attribute): layer
    for layer, targets in TARGETS.items()
    for owner, attribute in targets
}


class Recorder:
    """Collects the spans of the operation in flight."""

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._local.stack = self._client_stack = []
        self._patched: list = []

    def take(self) -> list:
        """The spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, function):
        local = self._local
        client_stack = self._client_stack
        extra_of = _EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif client_stack and stack is not client_stack:
                parent = client_stack[-1]
            else:
                parent = None
            span = [name, parent, 0.0, 0.0, None]
            self.spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra_of is not None:
                span[EXTRA] = extra_of(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target."""
        for targets in TARGETS.values():
            for owner, attribute in targets:
                original = getattr(owner, attribute)
                traced = self._wrap(_span_name(owner, attribute), original)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [
                        module
                        for module_name, module in list(sys.modules.items())
                        if module_name.split(".")[0] == "repro"
                        and module is not None
                    ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, traced)
                            self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def _self_time(span, children: list) -> float:
    """Duration of *span* minus what its children's intervals cover
    (children on pool threads may overlap, so cover their union)."""
    covered = 0.0
    edge = span[START]
    for child in sorted(children, key=lambda c: c[START]):
        start = max(child[START], edge)
        end = min(child[END], span[END])
        if end > start:
            covered += end - start
            edge = end
    return span[END] - span[START] - covered


def layer_table(span_lists: list) -> dict:
    """``layer -> [self seconds, calls]`` summed over *span_lists*
    (one list per operation)."""
    table = {layer: [0.0, 0] for layer in LAYERS}
    for spans in span_lists:
        children: dict = {}
        for span in spans:
            if span[PARENT] is not None:
                children.setdefault(id(span[PARENT]), []).append(span)
        for span in spans:
            row = table[LAYER_OF[span[NAME]]]
            row[0] += _self_time(span, children.get(id(span), ()))
            row[1] += 1
    return table


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the layer was never entered."""
    return numerator / denominator if denominator else 0.0


_WRITES = ("Dht.put", "Dht.put_many", "Dht.rewrite_local")


def _under(span, names) -> bool:
    """Whether *span* or one of its ancestors is named in *names*."""
    while span is not None:
        if span[NAME] in names:
            return True
        span = span[PARENT]
    return False


def span_counts(ops: list, op_spans: list) -> dict:
    """The exact counts and ratios only spans can give, as
    ``name -> (value, unit)``.

    Frames encoded for the journal (inside ``record_put``) are not wire
    frames and are left out of the ``service.wire`` counts.
    """
    calls = dict.fromkeys(LAYER_OF, 0)
    codec_bytes = codec_records = write_encodes = 0
    wire_frames = wire_bytes = 0
    splits = insert_appends = 0
    for op, spans in zip(ops, op_spans):
        for span in spans:
            name = span[NAME]
            calls[name] += 1
            if name == "encode_bucket":
                codec_bytes += span[EXTRA][0]
                codec_records += span[EXTRA][1]
                write_encodes += _under(span, _WRITES)
            elif name == "encode_frame":
                if not _under(span, ("AppendLogBackend.record_put",)):
                    wire_frames += 1
                    wire_bytes += span[EXTRA]
            elif op.kind == "insert":
                # One put_many per split: the moved children's round.
                splits += name == "Dht.put_many"
                insert_appends += name == "AppendLogBackend.record_put"
    n_ops = len(ops)
    inserts = sum(op.kind == "insert" for op in ops)
    return {
        "core.index.splits_per_insert": (ratio(splits, inserts), "count"),
        "core.codec.encodes_per_put": (
            ratio(write_encodes, calls["PeerStore.put"]), "count"),
        "core.codec.bytes_per_record": (
            ratio(codec_bytes, codec_records), "B"),
        "service.wire.frames_per_op": (wire_frames / n_ops, "count"),
        "service.wire.frame_bytes_per_op": (wire_bytes / n_ops, "B"),
        "service.wire.frame_bytes_per_codec_byte": (
            ratio(wire_bytes, codec_bytes), "ratio"),
        "dht.storage.gets_per_op": (calls["PeerStore.get"] / n_ops, "count"),
        "dht.storage.puts_per_op": (calls["PeerStore.put"] / n_ops, "count"),
        "dht.durable.appends_per_insert": (
            ratio(insert_appends, inserts), "count"),
    }


def write_trace(path, op_spans: list, setup_spans: list) -> None:
    """One JSON line per span: name, layer, start, end, parent, op id
    (-1 is the set-up)."""
    with open(path, "w") as out:
        for op_id, spans in enumerate([setup_spans] + op_spans, start=-1):
            ids = {id(span): number for number, span in enumerate(spans)}
            for span in spans:
                parent = span[PARENT]
                out.write(json.dumps({
                    "op": op_id,
                    "id": ids[id(span)],
                    "parent": ids.get(id(parent)),
                    "name": span[NAME],
                    "layer": LAYER_OF[span[NAME]],
                    "start": span[START],
                    "end": span[END],
                }) + "\n")


# ----------------------------------------------------------------------
# Kernel timings
# ----------------------------------------------------------------------


def _floor_us(function, undo=None, calls: int = 200) -> float:
    """Fastest of *calls* timed calls; *undo* runs untimed after each."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(calls):
        t0 = clock()
        function()
        t1 = clock()
        if t1 - t0 < best:
            best = t1 - t0
        if undo is not None:
            undo()
    return 1e6 * best


def kernel_timings(prepared, tmp_root) -> dict:
    """Floor of 200 direct calls of each layer's kernel, on the fullest
    bucket a bulk load of the workload's base set produces (its store
    is the workload's), at reference speed: scaled by the reference
    kernel's nominal time over its floor, taken here the same way.
    Call before :meth:`Recorder.install`."""
    config = prepared.config
    dht = create_dht(kind="sim", overlay="local", n_peers=1)
    repro.core.bulkload.bulk_load(dht, prepared.base, config)
    bucket = max((value for _, value in dht.items()), key=lambda b: b.load)
    records = list(bucket.records)
    record = records[0]
    region = bucket.region
    quarter = [
        (high - low) / 4 for low, high in zip(region.lows, region.highs)]
    inner = Region(
        tuple(low + q for low, q in zip(region.lows, quarter)),
        tuple(high - q for high, q in zip(region.highs, quarter)),
    )
    overfull = records + [record] * (config.split_threshold + 1 - len(records))
    strategy = build_strategy(config)
    candidate = packed_candidate(record.key, config.max_depth)
    store = bucket.store
    encoded = repro.core.codec.encode_bucket(bucket)
    wire = repro.service.wire
    frame = wire.encode_frame(wire.Op.REPLY_OK, 1, bucket)
    blob = pickle.dumps(bucket, protocol=pickle.HIGHEST_PROTOCOL)
    journal = AppendLogBackend(tmp_root / "kernel-journal")

    try:
        speed = 1e6 * REF_NOMINAL_S / _floor_us(reference_kernel)
        timings = {
            "common.labels.interleave_us": _floor_us(
                lambda: packed_interleave(record.key, config.max_depth)),
            "common.labels.naming_us": _floor_us(
                lambda: packed_naming_function(candidate, config.dims)),
            "core.store.matching_us": _floor_us(
                lambda: bucket.matching(inner)),
            "core.store.add_us": _floor_us(
                lambda: store.add(record), lambda: store.remove(record)),
            "core.index.split_us": _floor_us(
                lambda: strategy.plan_split(
                    bucket.label, overfull, config.dims, config.max_depth)),
            "core.codec.encode_us": _floor_us(
                lambda: repro.core.codec.encode_bucket(bucket)),
            "core.codec.decode_us": _floor_us(
                lambda: repro.core.codec.decode_bucket(encoded)),
            "service.wire.encode_frame_us": _floor_us(
                lambda: wire.encode_frame(wire.Op.REPLY_OK, 1, bucket)),
            "service.wire.decode_frame_us": _floor_us(
                lambda: wire.decode_frame(frame)),
            "dht.durable.append_us": _floor_us(
                lambda: journal.record_put("ml:kernel", blob)),
        }
        return {name: speed * value for name, value in timings.items()}
    finally:
        journal.wipe()
