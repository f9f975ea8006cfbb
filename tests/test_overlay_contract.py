"""What every routed overlay promises, asserted once.

Chord (with and without replication), Pastry and Kademlia differ in
routing state and identifier metric only; storage, membership, restart
and the oracle views come from ``RoutedOverlay`` and must behave the
same under all of them.  Routing-specific tests stay in
``test_chord.py`` / ``test_pastry.py`` / ``test_kademlia.py``.
"""

import pytest

from repro.common.errors import DhtKeyError, NodeUnreachableError, ReproError
from repro.dht.chord import ChordDht
from repro.dht.kademlia import KademliaDht
from repro.dht.pastry import PastryDht
from repro.dht.retry import RetryingDht

BUILDERS = {
    "chord": ChordDht.build,
    "chord-r3": lambda n, **kw: ChordDht.build(n, replication=3, **kw),
    "pastry": PastryDht.build,
    "kademlia": KademliaDht.build,
}


@pytest.fixture(params=sorted(BUILDERS))
def build(request):
    return BUILDERS[request.param]


def fullest_peer(dht) -> str:
    return max(dht.peers(), key=lambda name: len(dht.node(name).store))


def filled(build, n_peers=10, n_keys=80, **options):
    dht = build(n_peers, **options)
    for index in range(n_keys):
        dht.put(f"key-{index}", index)
    return dht


class TestStorage:
    def test_put_get_remove(self, build):
        dht = build(12)
        dht.put("k", "v", records_moved=2)
        assert dht.get("k") == "v"
        assert dht.get("absent") is None
        assert dht.stats.records_moved == 2
        assert dht.remove("k") == "v"
        assert dht.get("k") is None

    def test_absent_key_is_a_key_error(self, build):
        dht = build(8)
        with pytest.raises(DhtKeyError):
            dht.remove("absent")
        with pytest.raises(DhtKeyError):
            dht.rewrite_local("absent", 1)

    def test_value_lands_on_the_oracle_owner(self, build):
        dht = build(16)
        dht.put("payload", 123)
        assert dht.node(dht.peer_of("payload")).store.get("payload") == 123

    def test_routing_agrees_with_the_oracle(self, build):
        dht = build(24)
        for index in range(60):
            key = f"key-{index}"
            assert dht.lookup(key) == dht.peer_of(key)

    def test_rewrite_local_is_free_and_refreshes_every_copy(self, build):
        dht = build(8)
        dht.put("k", "old")
        dht.stats.reset()
        before = dht.network.stats.rpc_calls
        dht.rewrite_local("k", "new")
        assert dht.network.stats.rpc_calls == before
        assert dht.stats.lookups == 0
        holders = [
            dht.node(name).store.get("k")
            for name in dht.peers()
            if "k" in dht.node(name).store
        ]
        assert holders and set(holders) == {"new"}

    def test_get_direct_to_a_live_and_a_departed_peer(self, build):
        dht = build(8)
        dht.put("k", 7)
        owner = dht.peer_of("k")
        hops = dht.stats.hops
        assert dht.get_direct(owner, "k") == 7
        assert dht.stats.hops == hops  # no routing
        bystander = next(
            name
            for name in dht.peers()
            if name != owner and "k" not in dht.node(name).store
        )
        assert dht.get_direct(bystander, "k") is None
        dht.fail(owner)
        with pytest.raises(NodeUnreachableError):
            dht.get_direct(owner, "k")

    def test_replicas_count_once(self, build):
        dht = filled(build)
        copies = sum(len(dht.node(name).store) for name in dht.peers())
        replication = getattr(dht, "replication", 1)
        assert copies == 80 * replication
        assert dht.key_count() == 80
        assert sorted(dht.items()) == sorted(
            (f"key-{index}", index) for index in range(80)
        )

    def test_single_node_and_empty_build(self, build):
        dht = build(1)
        dht.put("k", 1)
        assert dht.get("k") == 1
        with pytest.raises(ReproError):
            build(0)


class TestMembership:
    def test_join_takes_over_exactly_the_owned_keys(self, build):
        dht = filled(build, 8, 100)
        dht.join("latecomer")
        dht.stabilize_all(3)
        late = dht.node("latecomer")
        if getattr(dht, "replication", 1) == 1:
            assert all(
                dht.peer_of(key) == "latecomer" for key in late.store.keys()
            )
        assert dht.key_count() == 100
        assert all(dht.get(f"key-{index}") == index for index in range(100))

    def test_duplicate_join_and_unknown_peers_are_rejected(self, build):
        dht = build(4)
        with pytest.raises(ReproError):
            dht.join(dht.peers()[0])
        with pytest.raises(ReproError):
            dht.leave("ghost")
        with pytest.raises(ReproError):
            dht.fail("ghost")

    def test_graceful_leave_hands_off_and_wipes_the_durable_file(
        self, build, tmp_path
    ):
        dht = filled(build, durability="log", data_dir=tmp_path)
        victim = dht.peers()[3]
        log = tmp_path / f"{victim}.log"
        assert log.exists()
        dht.leave(victim)
        dht.stabilize_all(3)
        assert not log.exists()
        assert victim not in dht.peers()
        assert not dht.network.is_registered(victim)
        assert all(dht.get(f"key-{index}") == index for index in range(80))
        # Handed-off keys never resurrect: coming back replays nothing.
        dht.restart(victim)
        assert dht.stats.restart_replayed == 0
        assert dht.key_count() == 80

    def test_crash_keeps_the_durable_file(self, build, tmp_path):
        dht = filled(build, durability="log", data_dir=tmp_path)
        victim = fullest_peer(dht)
        store = dht.node(victim).store
        dht.fail(victim)
        assert (tmp_path / f"{victim}.log").stat().st_size > 0
        assert store.backend is None  # detached and closed
        assert victim not in dht.peers()
        assert not dht.network.is_registered(victim)


class TestRestart:
    def test_fail_then_restart_meters_replay_reconcile_and_rehome(
        self, build, tmp_path
    ):
        dht = filled(build, durability="log", data_dir=tmp_path)
        victim = fullest_peer(dht)
        held = len(dht.node(victim).store)
        dht.fail(victim)
        for index in range(3):  # membership moves while the peer is down
            dht.join(f"while-down-{index}")
            dht.stabilize_all(3)  # converge before the next write routes
        for index in range(80, 120):
            dht.put(f"key-{index}", index)
        before = dht.network.stats.bytes_sent
        dht.restart(victim)
        stats = dht.stats
        assert stats.restarts == 1
        assert stats.restart_replayed == held > 0
        moved = stats.restart_reconciled + stats.restart_rehomed
        assert (stats.restart_repair_bytes > 0) == (moved > 0)
        assert stats.restart_repair_bytes <= (
            dht.network.stats.bytes_sent - before
        )
        assert victim in dht.peers()
        assert dht.network.is_registered(victim)
        if getattr(dht, "replication", 1) == 1:
            # What the restarted peer still holds, it owns.
            assert all(
                dht.peer_of(key) == victim
                for key in dht.node(victim).store.keys()
            )
        dht.stabilize_all(3)
        assert dht.key_count() == 120
        assert all(dht.get(f"key-{index}") == index for index in range(120))

    def test_quiet_outage_costs_no_repair_bytes(self, build, tmp_path):
        dht = filled(build, durability="log", data_dir=tmp_path)
        victim = dht.peers()[5]
        dht.fail(victim)
        dht.restart(victim)
        stats = dht.stats
        assert stats.restart_rehomed == 0
        if getattr(dht, "replication", 1) == 1:
            # (A replicated ring hands the copies it kept back.)
            assert stats.restart_reconciled == 0
            assert stats.restart_repair_bytes == 0
        assert dht.key_count() == 80

    def test_restart_needs_durability_and_a_down_peer(self, build):
        dht = build(4)
        victim = dht.peers()[1]
        dht.fail(victim)
        with pytest.raises(ReproError, match="durab"):
            dht.restart(victim)
        assert victim not in dht.peers()
        assert not dht.network.is_registered(victim)
        durable = build(4, durability="log")
        with pytest.raises(ReproError, match="live"):
            durable.restart(durable.peers()[0])


@pytest.mark.parametrize(
    "wrap", [lambda dht: dht, RetryingDht], ids=["bare", "retry"]
)
@pytest.mark.parametrize("overlay", [ChordDht, PastryDht, KademliaDht])
def test_join_through_an_unknown_gateway_changes_nothing(overlay, wrap):
    """The gateway is validated before any state exists: no half-joined
    peer in the membership or on the network."""
    substrate = overlay.build(4)
    dht = wrap(substrate)
    peers = dht.peers()
    addresses = substrate.network.addresses()
    with pytest.raises(ReproError, match="ghost"):
        dht.join("newbie", gateway="ghost")
    assert dht.peers() == peers
    assert substrate.network.addresses() == addresses
    assert not substrate.network.is_registered("newbie")
    dht.join("newbie", gateway=peers[-1])  # the name is still free
    assert "newbie" in dht.peers()
