"""The runtime-neutral construction surface.

``repro.runtime.create_dht`` is the one place substrates are built;
these tests pin its dispatch table, its validation, and the
deprecated top-level aliases it replaces.
"""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.common.errors import ReproError, UnknownRuntimeError
from repro.dht.chord import ChordDht
from repro.dht.kademlia import KademliaDht
from repro.dht.localhash import LocalDht
from repro.dht.pastry import PastryDht
from repro.runtime import (
    RuntimeConfig,
    create_dht,
    register_runtime,
    runtime_kinds,
)
from repro.service.node import ServiceDht


class TestFactoryDispatch:
    @pytest.mark.parametrize(
        "overlay,expected",
        [
            ("local", LocalDht),
            ("chord", ChordDht),
            ("kademlia", KademliaDht),
            ("pastry", PastryDht),
        ],
    )
    def test_sim_overlays(self, overlay, expected):
        dht = create_dht(RuntimeConfig(kind="sim", overlay=overlay,
                                       n_peers=4))
        assert isinstance(dht, expected)
        assert len(dht.peers()) == 4

    @pytest.mark.parametrize("kind", ["asyncio", "tcp"])
    def test_service_kinds(self, kind):
        with create_dht(kind=kind, n_peers=3) as dht:
            assert isinstance(dht, ServiceDht)
            assert len(dht.peers()) == 3

    def test_keyword_overrides_merge_over_config(self):
        base = RuntimeConfig(kind="sim", overlay="local", n_peers=4)
        dht = create_dht(base, n_peers=6)
        assert len(dht.peers()) == 6

    def test_factory_placement_matches_direct_construction(self):
        """The factory must be a pure re-routing: the substrate it
        builds is behaviourally the one the old constructor built."""
        factory = create_dht(kind="sim", overlay="local", n_peers=16)
        direct = LocalDht(16)
        for key in ("a", "leaf-00101", "z" * 30):
            assert factory.peer_of(key) == direct.peer_of(key)

    def test_replication_and_virtual_nodes_reach_the_substrate(self):
        chord = create_dht(
            RuntimeConfig(kind="sim", overlay="chord", n_peers=4,
                          replication=2)
        )
        assert chord.replication == 2
        local = create_dht(
            RuntimeConfig(kind="sim", overlay="local", n_peers=4,
                          virtual_nodes=8)
        )
        assert len(local.peers()) == 4

    def test_registry_is_extensible(self):
        sentinel = LocalDht(1)
        register_runtime("inmem-test", lambda config: sentinel)
        try:
            assert create_dht(kind="inmem-test") is sentinel
            assert "inmem-test" in runtime_kinds()
        finally:
            import repro.runtime as runtime_module

            runtime_module.RUNTIMES.table.pop("inmem-test")


class TestRuntimeConfigValidation:
    def test_unknown_kind_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown runtime kind"):
            create_dht(kind="threads")

    def test_unknown_kind_is_also_a_repro_error(self):
        with pytest.raises(UnknownRuntimeError):
            create_dht(kind="threads")
        assert issubclass(UnknownRuntimeError, ReproError)
        assert issubclass(UnknownRuntimeError, ValueError)

    def test_unknown_overlay_rejected(self):
        with pytest.raises(ValueError, match="unknown overlay"):
            RuntimeConfig(overlay="can")

    def test_numeric_bounds(self):
        with pytest.raises(ReproError):
            RuntimeConfig(n_peers=0)
        with pytest.raises(ReproError):
            RuntimeConfig(virtual_nodes=0)
        with pytest.raises(ReproError):
            RuntimeConfig(replication=0)

    def test_incompatible_combinations_rejected(self):
        with pytest.raises(ReproError, match="virtual_nodes"):
            RuntimeConfig(overlay="chord", virtual_nodes=4)
        with pytest.raises(ReproError, match="replication"):
            RuntimeConfig(overlay="pastry", replication=2)

    @pytest.mark.parametrize("kind", ["asyncio", "tcp"])
    def test_service_runtime_takes_virtual_nodes_under_any_overlay(
        self, kind
    ):
        """The service runtime places by ``HashRing`` whatever the
        overlay names its peers, so ring positions per peer apply."""
        config = RuntimeConfig(
            kind=kind, overlay="chord", n_peers=4, virtual_nodes=4
        )
        with create_dht(config) as dht:
            assert len(dht.peers()) == 4
            assert all(peer.startswith("chord") for peer in dht.peers())
            dht.put("k", 1)
            assert dht.get("k") == 1


class TestPublicSurface:
    def test_star_import_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec("from repro import *", {})
        for name in ("LocalDht", "ChordDht", "KademliaDht", "PastryDht"):
            assert name not in repro.__all__
            assert not hasattr(repro, name)

    def test_supported_surface_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dht = repro.create_dht(repro.RuntimeConfig(n_peers=2))
        assert isinstance(dht, LocalDht)
