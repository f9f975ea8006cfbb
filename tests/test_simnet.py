"""Tests for the simulated network transport."""

import pytest

from repro.common.errors import NodeUnreachableError
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.message import Message
from repro.net.simnet import RpcError, SimNetwork


class Echo:
    """Minimal RPC handler used throughout."""

    def __init__(self):
        self.seen = []

    def handle_rpc(self, message: Message):
        self.seen.append(message)
        args, kwargs = message.payload
        return ("echo", message.msg_type, args, kwargs)


class TestRegistration:
    def test_register_and_rpc(self):
        net = SimNetwork()
        net.register("b", Echo())
        result = net.rpc("a", "b", "ping", 1, flag=True)
        assert result == ("echo", "ping", (1,), {"flag": True})

    def test_duplicate_address_rejected(self):
        net = SimNetwork()
        net.register("a", Echo())
        with pytest.raises(NodeUnreachableError):
            net.register("a", Echo())

    def test_unregister_makes_unreachable(self):
        net = SimNetwork()
        net.register("b", Echo())
        net.unregister("b")
        with pytest.raises(RpcError):
            net.rpc("a", "b", "ping")

    def test_addresses_sorted(self):
        net = SimNetwork()
        for name in ("zeta", "alpha", "mid"):
            net.register(name, Echo())
        assert net.addresses() == ["alpha", "mid", "zeta"]


class TestAccounting:
    def test_messages_and_bytes_counted(self):
        import repro.core  # noqa: F401 (installs the codec wire model)
        from repro.dht.api import reply_wire_size

        net = SimNetwork()
        net.register("b", Echo())
        net.rpc("a", "b", "put", size_bytes=100)
        net.rpc("a", "b", "get")
        stats = net.stats.snapshot()
        assert stats["rpc_calls"] == 2
        assert stats["messages"] == 4  # request + reply each
        # Requests charge their declared size; replies are priced by
        # the installed codec model (an Echo reply is a plain envelope).
        echo_reply = ("echo", "put", (), {})
        assert stats["bytes_sent"] == 100 + 2 * reply_wire_size(echo_reply)
        assert stats["payload_bytes"] == 0  # no record-bearing payloads
        assert net.stats.per_type["put"] == 1

    def test_clock_advances_by_round_trip(self):
        net = SimNetwork(latency=ConstantLatency(2.0))
        net.register("b", Echo())
        net.rpc("a", "b", "ping")
        assert net.clock.now == 4.0

    def test_stats_reset(self):
        net = SimNetwork()
        net.register("b", Echo())
        net.rpc("a", "b", "ping")
        net.stats.reset()
        assert net.stats.snapshot()["messages"] == 0


class TestFaultInjection:
    def test_partition_blocks_both_ways(self):
        net = SimNetwork()
        net.register("a", Echo())
        net.register("b", Echo())
        net.partition({"a"}, {"b"})
        with pytest.raises(RpcError):
            net.rpc("a", "b", "ping")
        with pytest.raises(RpcError):
            net.rpc("b", "a", "ping")
        assert net.stats.dropped == 2

    def test_heal_partitions(self):
        net = SimNetwork()
        net.register("a", Echo())
        net.register("b", Echo())
        net.partition({"a"}, {"b"})
        net.heal_partitions()
        assert net.rpc("a", "b", "ping")[0] == "echo"

    def test_random_drops_deterministic(self):
        outcomes = []
        for _ in range(2):
            net = SimNetwork(drop_probability=0.5, seed=42)
            net.register("b", Echo())
            run = []
            for _ in range(20):
                try:
                    net.rpc("a", "b", "ping")
                    run.append(True)
                except RpcError:
                    run.append(False)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_invalid_drop_probability(self):
        with pytest.raises(ValueError):
            SimNetwork(drop_probability=1.0)


class TestLatencyModels:
    def test_constant(self):
        assert ConstantLatency(3.0).delay("a", "b") == 3.0

    def test_uniform_range_and_determinism(self):
        first = UniformLatency(1.0, 2.0, seed=7)
        second = UniformLatency(1.0, 2.0, seed=7)
        draws_a = [first.delay("a", "b") for _ in range(50)]
        draws_b = [second.delay("a", "b") for _ in range(50)]
        assert draws_a == draws_b
        assert all(1.0 <= d <= 2.0 for d in draws_a)

    def test_uniform_invalid_range(self):
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)
