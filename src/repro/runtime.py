"""The one construction surface for DHT substrates.

Historically every experiment picked its substrate by importing a
concrete constructor (``LocalDht(n_peers)``, ``ChordDht.build(...)``,
...).  With the service plane there are now two *runtimes* (simulated
and asyncio/TCP) times several *overlays*, so construction goes through
a single factory over the closed ``RUNTIMES`` table instead::

    from repro.runtime import RuntimeConfig, create_dht

    dht = create_dht(RuntimeConfig(kind="sim", overlay="chord",
                                   n_peers=64))
    dht = create_dht(RuntimeConfig(kind="asyncio", n_peers=8))

``kind`` selects the runtime plane:

* ``"sim"`` — the single-threaded simulated substrates.  ``overlay``
  picks which one: the ``"local"`` consistent-hashing oracle or the
  routed ``"chord"``/``"kademlia"``/``"pastry"`` protocols over
  :class:`~repro.net.simnet.SimNetwork`.
* ``"asyncio"`` / ``"tcp"`` — the service runtime
  (:class:`~repro.service.node.ServiceDht`): every peer served on one
  asyncio event loop in the framed wire protocol, each frame on the
  task that sends it or across real loopback sockets.  Placement is
  runtime-neutral
  consistent hashing; ``overlay`` only names the peers (routed overlay
  *protocols* remain a sim-plane concern).  Remember to ``close()``
  service substrates (or use them as context managers).

Query answers and index-level :class:`~repro.dht.api.DhtStats` meters
are identical whichever runtime serves them — that is the over-DHT
contract, and ``tests/test_service_equivalence.py`` holds the factory
to it.

Unknown kinds and overlays raise :class:`~repro.common.errors.
UnknownRuntimeError` (a ``ValueError``) naming the ones there are.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.common.errors import ReproError, UnknownRuntimeError, unknown_kind
from repro.dht.api import Dht
from repro.dht.chord import ChordDht
from repro.dht.durable import check_durability
from repro.dht.kademlia import KademliaDht
from repro.dht.localhash import LocalDht
from repro.dht.pastry import PastryDht
from repro.service.node import ServiceDht

OVERLAYS = ("local", "chord", "kademlia", "pastry")


@dataclass(frozen=True, slots=True)
class RuntimeConfig:
    """Everything needed to construct one DHT substrate.

    Attributes:
        kind: runtime plane — ``"sim"``, ``"asyncio"`` or ``"tcp"``.
        overlay: substrate flavour within the runtime; one of
            ``"local"``, ``"chord"``, ``"kademlia"``, ``"pastry"``.
        n_peers: how many peers the substrate simulates or serves.
        virtual_nodes: ring positions per peer (consistent-hashing
            placements only, i.e. ``local`` and the service runtime).
        replication: stored copies per key (``sim``/``chord`` only).
        durability: durable-backend kind journaling every peer store
            (``"log"``, the one there is); ``None`` keeps stores purely
            in-memory.  Required for :meth:`~repro.dht.api.Dht.restart`.
        data_dir: directory for the durable backend files (only with
            *durability*); ``None`` gives each substrate its own fresh
            temporary directory, so parallel test workers never share a
            log.
    """

    kind: str = "sim"
    overlay: str = "local"
    n_peers: int = 128
    virtual_nodes: int = 1
    replication: int = 1
    durability: str | None = None
    data_dir: str | None = None

    def __post_init__(self) -> None:
        if self.overlay not in OVERLAYS:
            raise UnknownRuntimeError(
                f"unknown overlay {self.overlay!r}; expected one of "
                f"{OVERLAYS}"
            )
        if self.n_peers < 1:
            raise ReproError(f"n_peers must be >= 1, got {self.n_peers}")
        if self.virtual_nodes < 1:
            raise ReproError(
                f"virtual_nodes must be >= 1, got {self.virtual_nodes}"
            )
        if self.replication < 1:
            raise ReproError(
                f"replication must be >= 1, got {self.replication}"
            )
        if (
            self.virtual_nodes > 1
            and self.kind == "sim"
            and self.overlay != "local"
        ):
            raise ReproError(
                "virtual_nodes applies only to consistent-hashing "
                "placement (overlay='local' or the service runtime), "
                f"not the simulated {self.overlay!r} overlay"
            )
        if self.replication > 1 and self.overlay != "chord":
            raise ReproError(
                "replication is implemented by the chord overlay only, "
                f"not {self.overlay!r}"
            )
        check_durability(self.durability, self.data_dir)


def _build_sim(config: RuntimeConfig) -> Dht:
    durable = {
        "durability": config.durability,
        "data_dir": config.data_dir,
    }
    if config.overlay == "local":
        return LocalDht(config.n_peers, config.virtual_nodes, **durable)
    if config.overlay == "chord":
        return ChordDht.build(
            config.n_peers, replication=config.replication, **durable
        )
    if config.overlay == "kademlia":
        return KademliaDht.build(config.n_peers, **durable)
    return PastryDht.build(config.n_peers, **durable)


def _build_service(transport: str) -> Callable[[RuntimeConfig], Dht]:
    def build(config: RuntimeConfig) -> Dht:
        return ServiceDht(
            config.n_peers,
            transport=transport,
            virtual_nodes=config.virtual_nodes,
            peer_prefix="peer" if config.overlay == "local"
            else config.overlay,
            durability=config.durability,
            data_dir=config.data_dir,
        )

    return build


#: kind -> builder(RuntimeConfig) -> Dht.
RUNTIMES = {
    "sim": _build_sim,
    "asyncio": _build_service("asyncio"),
    "tcp": _build_service("tcp"),
}


def create_dht(config: RuntimeConfig | None = None, **overrides) -> Dht:
    """Build the substrate *config* describes.

    Keyword overrides are merged over *config* (or over a default
    ``RuntimeConfig``), so the short forms read naturally::

        create_dht(kind="asyncio", n_peers=8)
        create_dht(RuntimeConfig(overlay="chord"), n_peers=32)
    """
    if config is None:
        config = RuntimeConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    build = RUNTIMES.get(config.kind)
    if build is None:
        raise unknown_kind(
            UnknownRuntimeError, "runtime kind", config.kind, RUNTIMES
        )
    return build(config)
