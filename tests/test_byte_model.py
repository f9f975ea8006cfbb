"""One byte model: every runtime prices a message with
``repro.net.message.message_sizes``.

A simulated overlay's storage request, a ``SimNetwork`` reply and a
service frame (``frame_wire_sizes``) must agree on ``(message bytes,
data bytes)`` for every kind of value the index layers store, or the
sim-vs-asyncio byte equalities stop meaning anything.  The data bytes
are pinned: a row-bearing value is its codec size, a control value is
none.
"""

import pytest

from repro.baselines.dst import DstNode
from repro.baselines.pht import PhtNode
from repro.core.bucket import LeafBucket
from repro.core.records import Record
from repro.dht.chord import ChordDht
from repro.net.message import MESSAGE_HEADER_BYTES, message_sizes
from repro.net.simnet import SimNetwork
from repro.service.wire import HEADER, Op, frame_wire_sizes

KEY = "leaf:001"
ROWS = [((0.1, 0.2), None), ((0.3, 0.4), None)]
VALUED = [((0.1, 0.2), "a"), ((0.3, 0.4), 7)]


def records(rows):
    return [Record(point, value) for point, value in rows]


def bucket(rows):
    leaf = LeafBucket("001", 2)
    for record in records(rows):
        leaf.add(record)
    return leaf


def cell(prefix, rows=()):
    """The bucket a PHT/DST node at *prefix* holds: its cell's (label
    ``001`` + prefix), sized with the store kind and the whole label."""
    return LeafBucket("001" + prefix, 2, records(rows))


#: name -> (value factory, data bytes).
VALUES = {
    "none": (lambda: None, 0),
    "control": (lambda: "peer-0001", 0),
    "unvalued_bucket": (lambda: bucket(ROWS), 57),
    "valued_bucket": (lambda: bucket(VALUED), 77),
    "pht_leaf": (lambda: PhtNode("01", True, cell("01", VALUED)), 79),
    "pht_internal": (lambda: PhtNode("01", False, cell("01")), 27),
    "dst_node": (lambda: DstNode("0", cell("0", ROWS[:1])), 42),
}


def test_the_frame_header_is_the_modelled_header():
    assert HEADER.size == MESSAGE_HEADER_BYTES


def sim_request(value):
    """``(bytes, data bytes)`` a one-peer Chord ring charges for the
    storage request carrying *value* (a key-only ``get`` for ``None``).
    Its reply carries no data: a ``put`` is acked with ``None``, the
    ``get`` misses."""
    dht = ChordDht.build(1)
    stats = dht.network.stats
    if value is None:
        dht.get(KEY)
        kind = "store_get"
    else:
        dht.put(KEY, value)
        kind = "store_put"
    return stats.bytes_per_type[kind], stats.payload_bytes


class _Returns:
    def __init__(self, value):
        self.value = value

    def handle_rpc(self, message):
        return self.value


def sim_reply(value):
    """``(bytes, data bytes)`` ``SimNetwork`` charges for a reply of
    *value* to an unsized request."""
    network = SimNetwork()
    network.register("b", _Returns(value))
    network.rpc("a", "b", "fetch")
    stats = network.stats
    return stats.bytes_per_type["fetch:reply"], stats.payload_bytes


@pytest.mark.parametrize("name", sorted(VALUES))
def test_every_runtime_prices_a_value_alike(name):
    make, data = VALUES[name]
    value = make()
    request_op = Op.GET if value is None else Op.PUT
    request = message_sizes(KEY, value)
    reply = message_sizes("", value)
    assert request[1] == reply[1] == data
    assert sim_request(value) == frame_wire_sizes(request_op, KEY, value)
    assert sim_request(value) == request
    assert sim_reply(value) == frame_wire_sizes(Op.REPLY_OK, "", value)
    assert sim_reply(value) == reply
