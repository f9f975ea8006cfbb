"""Decoders are total: flipped bits raise typed errors, or nothing.

Every decoder of stored or received bytes — the bucket codec, a frame
that carries a bucket, a key-only request or an error reply, a durable
journal on replay — must turn a
corrupt input into a :class:`~repro.common.errors.ReproError` subclass
or a value that can be used, never a bare ``IndexError`` /
``struct.error`` / ``UnicodeDecodeError`` from somewhere inside.  Each
case flips 1–3 seeded bits of a valid encoding, decodes it and then
uses what came back: matches a query on it, reads its records,
encodes it again.
"""

from __future__ import annotations

import random

import pytest

from repro.common.errors import DhtKeyError, ReproError
from repro.common.geometry import Region
from repro.core import codec
from repro.core.bucket import LeafBucket
from repro.core.records import Record
from repro.dht.durable import AppendLogBackend
from repro.dht.peer import KeyValuePeer
from repro.dht.storage import PeerStore
from repro.service import wire
from repro.service.node import serve_request

KINDS = ["columnar", "numpy"]
QUERIES = [
    Region((0.0, 0.0), (1.0, 1.0)),
    Region((0.5, 0.25), (0.75, 0.5)),
]


def bucket(rng: random.Random, kind: str, values: bool) -> LeafBucket:
    """A leaf of cell ``0010`` (the lower-left quarter of the lower
    half) holding a dozen records."""
    records = [
        Record(
            (rng.random() * 0.5, rng.random() * 0.5),
            {"n": slot} if values else None,
        )
        for slot in range(12)
    ]
    return LeafBucket("0010", 2, records, store=kind)


def flipped(data: bytes, rng: random.Random) -> bytes:
    """*data* with 1–3 distinct bits inverted."""
    mangled = bytearray(data)
    for bit in rng.sample(range(len(data) * 8), rng.randint(1, 3)):
        mangled[bit // 8] ^= 1 << (bit % 8)
    return bytes(mangled)


def use(value) -> None:
    """Do what a reader does with a decoded value: a bucket is matched
    twice (lazy bytes first, then its store), read, encoded again."""
    if isinstance(value, LeafBucket):
        for query in QUERIES:
            value.matching(query)
        value.matching(QUERIES[0])
        value.records
        codec.encode_bucket(value)


def typed_only(action) -> str:
    """Run *action*; the name of the typed error it raised, or ``"ok"``.
    Any other exception fails the test, with its traceback."""
    try:
        action()
    except ReproError as error:
        return type(error).__name__
    return "ok"


@pytest.mark.parametrize("values", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_flipped_buckets_raise_only_typed_errors(kind, values):
    rng = random.Random(f"bucket-{kind}-{values}")
    data = codec.encode_bucket(bucket(rng, kind, values))
    outcomes = {
        typed_only(lambda: use(codec.decode_bucket(flipped(data, rng))))
        for _ in range(400)
    }
    assert "ok" in outcomes and len(outcomes) > 1


@pytest.mark.parametrize("op", [wire.Op.PUT, wire.Op.REPLY_OK])
def test_flipped_frames_raise_only_typed_errors(op):
    rng = random.Random(f"frame-{op.name}")
    leaf = bucket(rng, "columnar", values=True)
    body = ("ml:0010", leaf) if op is wire.Op.PUT else leaf
    data = wire.encode_frame(op, 7, body)

    def decode_and_use():
        frame = wire.decode_frame(flipped(data, rng))
        use(frame.body[1] if frame.op is wire.Op.PUT else frame.body)

    outcomes = {typed_only(decode_and_use) for _ in range(400)}
    assert "WireError" in outcomes and len(outcomes) > 1


def use_frame(frame: wire.Frame, peer: KeyValuePeer) -> None:
    """Do what a peer or a client does with a decoded frame: a request
    is served (its reply decoded and used), an error reply is rebuilt,
    any other body is used as a value."""
    if frame.op in wire.REQUEST_OPS:
        reply = wire.decode_frame(serve_request(peer, frame))
        use(reply.body)
    elif frame.op is wire.Op.REPLY_ERR:
        assert isinstance(wire.rebuild_error(frame.body), ReproError)
    else:
        use(frame.body)


@pytest.mark.parametrize(
    "op", [wire.Op.GET, wire.Op.LOOKUP, wire.Op.REMOVE, wire.Op.REPLY_ERR]
)
def test_flipped_key_and_error_frames_raise_only_typed_errors(op):
    """A key-only request (its body the key's UTF-8) and an error reply
    (a packed class name, then the message): through ``decode_frame``
    and then served or rebuilt."""
    rng = random.Random(f"frame-{op.name}")
    key = "ml:0010"
    if op is wire.Op.REPLY_ERR:
        data = wire.encode_error(7, DhtKeyError(f"key {key!r} does not exist"))
    else:
        data = wire.encode_request(op, 7, key)

    def decode_and_use():
        peer = KeyValuePeer("peer-0000")
        peer.serve("put", key, bucket(rng, "columnar", values=False))
        use_frame(wire.decode_frame(flipped(data, rng)), peer)

    outcomes = {typed_only(decode_and_use) for _ in range(400)}
    assert "WireError" in outcomes and len(outcomes) > 1


def test_flipped_journals_replay_or_raise_only_typed_errors(tmp_path):
    rng = random.Random("journal")
    path = tmp_path / "peer"
    backend = AppendLogBackend(path)
    store = PeerStore(backend)
    leaf = bucket(rng, "columnar", values=True)
    store.put("ml:0010", leaf)
    store.append("ml:0010", codec.encode_row((0.125, 0.25), "row"))
    store.put("ml:other", "text")
    store.remove("ml:other")
    backend.close()
    log = backend.path
    data = log.read_bytes()

    def replay_and_recover():
        log.write_bytes(flipped(data, rng))
        journal = AppendLogBackend(path)
        try:
            journal.replay()
            for _, value in PeerStore.recover(journal).items():
                use(value)
        finally:
            journal.close()

    outcomes = {typed_only(replay_and_recover) for _ in range(150)}
    assert "ok" in outcomes
