"""Index traffic crosses the wire and the journal with no pickle.

Every plain opcode has a typed body (:mod:`repro.service.wire`): a key
is UTF-8, a bucket is its codec bytes, an inserted record is one codec
row, a flag or a peer name is a kind byte or UTF-8.  The tests below
record every ``pickle.loads`` call and show that a lookup, a range
query, an insert, a split and a merge unpickle nothing on either side —
on both transports, with and without a journal — and that replaying the
journal they left unpickles nothing either.  The records carry no
payload: a payload is a pickled value inside the codec's values section
(ROADMAP item 13's remainder).  A frame of another version, or a body
that is not what its opcode says, is refused before anything in it is
unpickled, on a raw TCP socket as in process.
"""

from __future__ import annotations

import pickle
import socket

import pytest

from repro.common.config import IndexConfig
from repro.common.geometry import Region
from repro.core.bucket import LeafBucket
from repro.core.bulkload import bulk_load
from repro.core.codec import encode_bucket, encode_row
from repro.core.index import MLightIndex
from repro.core.records import Record
from repro.datasets.synthetic import uniform_points
from repro.dht.durable import AppendLogBackend
from repro.dht.storage import PeerStore
from repro.service.node import ServiceDht
from repro.service.wire import (
    HEADER,
    MAGIC,
    VERSION,
    Op,
    decode_frame,
    encode_request,
)

CONFIG = IndexConfig(dims=2, split_threshold=4, merge_threshold=2)
POINTS = uniform_points(60, seed=11)
EVERYTHING = Region((0.0, 0.0), (1.0, 1.0))

#: What unpickling a :class:`_Tripwire` appended.
tripped: list = []


def _trip() -> None:
    tripped.append(True)


class _Tripwire:
    def __reduce__(self):
        return (_trip, ())


@pytest.fixture
def unpickled(monkeypatch) -> list:
    """The size of every blob ``pickle.loads`` is handed while the test
    runs, on any thread."""
    calls: list = []
    loads = pickle.loads

    def recording(data, *args, **kwargs):
        calls.append(len(data))
        return loads(data, *args, **kwargs)

    monkeypatch.setattr(pickle, "loads", recording)
    return calls


def keys_in(index, region) -> list:
    return sorted(record.key for record in index.range_query(region).records)


@pytest.mark.parametrize("durability", [None, "log"])
@pytest.mark.parametrize("transport", ["asyncio", "tcp"])
def test_index_traffic_unpickles_nothing(
    make_dht, tmp_path, unpickled, transport, durability
):
    journal = {"durability": "log", "data_dir": tmp_path} if durability else {}
    dht = make_dht(kind=transport, n_peers=8, **journal)
    bulk_load(dht, [(point, None) for point in POINTS[:40]], CONFIG)
    index = MLightIndex(dht, CONFIG)
    unpickled.clear()
    query = Region((0.2, 0.2), (0.7, 0.8))
    assert keys_in(index, query) == sorted(
        p for p in POINTS[:40] if query.contains_point_closed(p)
    )
    leaves = index.tree_size()
    for point in POINTS[40:]:
        index.insert(point)
        assert index.lookup(point).bucket.covers(point)
    assert index.tree_size() > leaves  # the inserts split
    leaves = index.tree_size()
    for point in POINTS[:50]:
        assert index.delete(point)
    assert index.tree_size() < leaves  # the deletes merged
    assert keys_in(index, EVERYTHING) == sorted(POINTS[50:])
    assert unpickled == []
    if durability is None:
        return
    for peer in dht.peers():  # every journal replays: rows, removes, puts
        dht.fail(peer)
        dht.restart(peer)
    assert keys_in(index, EVERYTHING) == sorted(POINTS[50:])
    index.check_invariants()
    assert unpickled == []


def test_journal_replay_unpickles_nothing(tmp_path, unpickled):
    """Bucket puts, appended rows and removes replay with no
    ``pickle.loads``; a row that carries a payload is the one that
    unpickles, its payload alone."""
    store = PeerStore(backend=AppendLogBackend(tmp_path / "peer"))
    store.put("a", LeafBucket("011", 1, [Record((0.5,))]))
    store.put("b", LeafBucket("010", 1, [Record((0.25,))]))
    for coordinate in (0.625, 0.75):
        assert store.append("a", encode_row((coordinate,), None))
    store.remove("b")
    store.put("c", LeafBucket("010", 1))
    live = {key: encode_bucket(value) for key, value in store.items()}
    store.close_backend()
    unpickled.clear()
    recovered = PeerStore.recover(AppendLogBackend(tmp_path / "peer"))
    assert {key: encode_bucket(v) for key, v in recovered.items()} == live
    assert unpickled == []
    row = encode_row((0.875,), "payload")
    assert recovered.append("a", row)
    recovered.close_backend()
    unpickled.clear()
    again = PeerStore.recover(AppendLogBackend(tmp_path / "peer"))
    assert unpickled == [len(row) - 8]
    assert [r.value for r in again.get("a").records][-1] == "payload"
    again.close_backend()


def _exchange(port: int, frame: bytes) -> bytes:
    """Send *frame* on a fresh connection; whatever comes back before
    the peer answers or hangs up."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(frame)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk
            if len(received) >= HEADER.size:
                length = HEADER.unpack_from(received)[4]
                if len(received) >= HEADER.size + length:
                    return received


def test_a_foreign_frame_is_refused_unread_on_tcp(unpickled):
    """A version-1 frame with a pickled ``GET`` body, and a version-2
    ``GET`` whose body is a pickle, each end their connection with no
    reply and nothing unpickled; the peer serves the next client."""
    body = pickle.dumps(("k", _Tripwire()), protocol=pickle.HIGHEST_PROTOCOL)
    tripped.clear()
    with ServiceDht(2, transport="tcp") as dht:
        dht.put("k", LeafBucket("001", 2))
        name = dht.peer_of("k")
        port = dht._member(name).server.sockets[0].getsockname()[1]
        for version in (1, VERSION):
            frame = HEADER.pack(MAGIC, version, Op.GET, 1, len(body)) + body
            assert _exchange(port, frame) == b""
        reply = decode_frame(_exchange(port, encode_request(Op.GET, 7, "k")))
        assert (reply.op, reply.request_id) == (Op.REPLY_OK, 7)
        assert reply.body == LeafBucket("001", 2)
    assert tripped == [] and unpickled == []
