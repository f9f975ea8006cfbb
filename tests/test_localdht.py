"""Tests for the oracle DHT and the facade's metering semantics."""

from functools import partial

import pytest

from repro.common.errors import DhtKeyError, ReproError
from repro.core import codec
from repro.core.bucket import LeafBucket
from repro.core.records import Record
from repro.dht.api import (
    APPEND, CONTAINS, GET, LOOKUP, PUT, REMOVE, REWRITE, Dht,
)
from repro.dht.localhash import LocalDht


class TestOwnership:
    def test_peer_of_deterministic(self):
        first = LocalDht(16)
        second = LocalDht(16)
        for index in range(50):
            key = f"key-{index}"
            assert first.peer_of(key) == second.peer_of(key)

    def test_keys_spread_over_peers(self):
        dht = LocalDht(16)
        owners = {dht.peer_of(f"key-{i}") for i in range(500)}
        assert len(owners) >= 12  # most peers receive something

    def test_single_peer_owns_everything(self):
        dht = LocalDht(1)
        assert dht.peer_of("anything") == "peer-0000"

    def test_invalid_sizes(self):
        with pytest.raises(ReproError):
            LocalDht(0)
        with pytest.raises(ReproError):
            LocalDht(4, virtual_nodes=0)

    def test_virtual_nodes_even_out_arcs(self):
        """With vnodes, per-peer key counts concentrate near the mean."""
        keys = [f"key-{i}" for i in range(4000)]

        def spread(dht):
            counts = {}
            for key in keys:
                owner = dht.peer_of(key)
                counts[owner] = counts.get(owner, 0) + 1
            loads = [counts.get(p, 0) for p in dht.peers()]
            mean = sum(loads) / len(loads)
            return (
                sum((x - mean) ** 2 for x in loads) / len(loads) / mean**2
            )

        plain = spread(LocalDht(32, virtual_nodes=1))
        virtual = spread(LocalDht(32, virtual_nodes=64))
        assert virtual < plain


class TestOperationsAndMetering:
    def test_put_get_roundtrip(self):
        dht = LocalDht(8)
        dht.put("k", {"v": 1})
        assert dht.get("k") == {"v": 1}

    def test_get_missing_returns_none(self):
        assert LocalDht(8).get("missing") is None

    def test_remove(self):
        dht = LocalDht(8)
        dht.put("k", 1)
        assert dht.remove("k") == 1
        with pytest.raises(DhtKeyError):
            dht.remove("k")

    def test_every_operation_counts_one_lookup(self):
        dht = LocalDht(8)
        dht.lookup("a")
        dht.put("a", 1)
        dht.get("a")
        dht.remove("a")
        assert dht.stats.lookups == 4
        assert dht.stats.puts == 1
        assert dht.stats.gets == 1
        assert dht.stats.removes == 1

    def test_records_moved_accounting(self):
        dht = LocalDht(8)
        dht.put("a", "bucket", records_moved=7)
        dht.put("b", "bucket", records_moved=0)
        dht.remove("a", records_moved=3)
        assert dht.stats.records_moved == 10

    def test_rewrite_local_is_free(self):
        dht = LocalDht(8)
        dht.put("a", 1)
        before = dht.stats.snapshot()
        dht.rewrite_local("a", 2)
        assert dht.stats.snapshot() == before
        assert dht.peek("a") == 2

    def test_rewrite_local_requires_existing_key(self):
        dht = LocalDht(8)
        with pytest.raises(DhtKeyError):
            dht.rewrite_local("ghost", 1)

    def test_peek_and_items_are_free(self):
        dht = LocalDht(8)
        dht.put("a", 1)
        before = dht.stats.snapshot()
        assert dht.peek("a") == 1
        assert dict(dht.items()) == {"a": 1}
        assert dht.stats.snapshot() == before

    def test_stats_reset(self):
        dht = LocalDht(8)
        dht.put("a", 1)
        dht.stats.reset()
        assert dht.stats.snapshot()["lookups"] == 0

    def test_value_stored_on_responsible_peer(self):
        dht = LocalDht(8)
        dht.put("k", "value")
        owner = dht.peer_of("k")
        assert dht.lookup("k") == owner

    def test_load_by_peer_with_weights(self):
        dht = LocalDht(4)
        dht.put("a", [1, 2, 3])
        dht.put("b", [1])
        loads = dht.load_by_peer(weigh=len)
        assert sum(loads.values()) == 4
        assert set(loads) == set(dht.peers())


def _leaf(*xs: float) -> LeafBucket:
    """A leaf of 2-d cell ``0010`` with a record at each ``(x, 0.5)``."""
    return LeafBucket("0010", 2, [Record((x, 0.5)) for x in xs])


def _requests(dht: LocalDht) -> list[tuple]:
    """One :meth:`Dht.ask` request of every op, absent keys included."""
    key, absent = "ml:0010", "ml:absent"
    owner = dht.peer_of(key)
    other = next(peer for peer in dht.peers() if peer != owner)
    return [
        (GET, absent, None, None),
        (PUT, key, _leaf(0.1), None),
        (GET, key, None, None),
        (GET, key, None, owner),
        (GET, key, None, other),
        (GET, key, None, "peer-9999"),
        (CONTAINS, key, None, None),
        (CONTAINS, absent, None, None),
        (LOOKUP, key, None, None),
        (REWRITE, key, _leaf(0.1, 0.2), None),
        (REWRITE, absent, _leaf(0.3), None),
        (APPEND, key, codec.encode_row((0.3, 0.5), None), None),
        (APPEND, absent, codec.encode_row((0.3, 0.5), None), None),
        (REMOVE, absent, None, None),
        (REMOVE, key, None, None),
        (REMOVE, key, None, None),
    ]


def _outcome(ask, request: tuple) -> tuple:
    """What *request* answered or raised, a bucket as its codec bytes."""
    try:
        reply = ask(*request)
    except ReproError as error:
        return type(error).__name__, error.args
    if isinstance(reply, LeafBucket):
        return "bucket", codec.encode_bucket(reply)
    return "reply", reply


@pytest.mark.parametrize("durability", [None, "log"])
def test_ask_is_the_generic_ask_on_one_owner(tmp_path, durability):
    """``LocalDht.ask`` (one exchange with the key's one owner) answers,
    raises and stores exactly as :meth:`Dht.ask`'s walk over the key's
    targets would, for every op — a named peer, an unknown one and
    absent keys included — and journals the same bytes."""
    sides = {}
    for side, ask in (("local", LocalDht.ask), ("generic", Dht.ask)):
        data_dir = tmp_path / side if durability else None
        dht = LocalDht(4, durability=durability, data_dir=data_dir)
        outcomes = [
            _outcome(partial(ask, dht), request) for request in _requests(dht)
        ]
        stored = sorted(
            (dht.peer_of(key), key, codec.encode_bucket(value))
            for key, value in dht.items()
        )
        journal = {
            path.name: path.read_bytes() for path in sorted(data_dir.iterdir())
        } if durability else {}
        sides[side] = outcomes, stored, journal, dht.stats.snapshot()
    assert sides["local"] == sides["generic"]
    outcomes = sides["local"][0]
    assert outcomes[5][0] == "NodeUnreachableError"
    assert outcomes[4] == ("reply", None)  # a peer that holds no copy
    assert outcomes[-1] == ("DhtKeyError", ("key 'ml:0010' does not exist",))
    if durability:
        assert sides["local"][2]
