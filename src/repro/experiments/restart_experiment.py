"""E14 — crash-restart recovery from durable per-peer storage.

E10/E12 quantify what churn costs an index whose peers lose their
state on a crash.  This experiment measures what the durability plane
(:mod:`repro.dht.durable`) buys back: an m-LIGHT tree on a Chord ring,
a crash burst drawn by :func:`repro.dht.churn.run_churn`, a trickle of
inserts while the victims are down, then :meth:`repro.dht.api.Dht.
restart` replaying each victim's durable log and reconciling with the
live ring.

Expected shape: while the victims are down recall degrades exactly as
in E10 (replication=1: their buckets are unreachable); after restart
recall returns to 1.0 **and** the repair traffic is proportional to the
keys whose ownership moved while the peer was down (the inserts that
landed on its neighbours), not to the size of its store — with nothing
written during the outage, restart moves zero bytes.  That is the
restart analogue of the paper's Theorem 5 locality argument: recovery
work tracks ownership churn, never data size.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.common.config import IndexConfig
from repro.common.errors import ReproError
from repro.common.geometry import Point
from repro.dht.churn import run_churn
from repro.experiments.harness import load_index, recall, truth_sets
from repro.net.message import message_sizes
from repro.workloads.queries import uniform_range_queries


@dataclass(frozen=True, slots=True)
class RestartSample:
    """Recovery outcome for one (durability, downtime-writes) cell."""

    durability: str  # backend kind, or "none" (rejoin empty)
    crashes: int
    inserts_down: int  # points inserted while the victims were down
    recall_down: float  # recall with the victims down
    recall_after: float  # recall after every victim came back
    replayed: int  # keys rebuilt from local durable logs
    repaired: int  # keys moved over the wire (reconciled + re-homed)
    repair_bytes: int  # wire bytes of that repair traffic
    store_keys: int  # distinct keys stored ring-wide after recovery
    store_bytes: int  # wire size of the whole store (repair bound)

    # The table shows every field but the bound the gate compares with.
    COLUMNS = (
        "durability", "crashes", "inserts_down", "recall_down",
        "recall_after", "replayed", "repaired", "repair_bytes", "store_keys",
    )


def run_restart_recovery(
    points: Sequence[Point],
    config: IndexConfig,
    durabilities: Sequence[str | None] = (None, "log"),
    inserts_down: Sequence[int] = (0, 500),
    n_peers: int = 16,
    n_crashes: int = 3,
    n_queries: int = 12,
    span: float = 0.1,
    seed: int = 0,
) -> list[RestartSample]:
    """Crash, optionally write during the outage, restart, measure.

    Every cell crashes the same victims (the ``run_churn`` schedule is
    seed-deterministic), holds out the last ``max(inserts_down)``
    points as the downtime writes, and then recovers: durable cells
    via :meth:`~repro.dht.api.Dht.restart`, the ``None`` baseline by
    rejoining the victims empty — routing comes back either way, lost
    state only with a durable backend.
    """
    # Clamp the downtime batch so tiny runs still leave a real base
    # tree to crash (the CLI smoke-tests this at a few hundred points).
    inserts_down = tuple(
        min(n, len(points) // 4) for n in inserts_down
    )
    held_out = max(inserts_down, default=0)
    base_points = points[: len(points) - held_out]
    down_points = points[len(points) - held_out:]
    queries = uniform_range_queries(
        n_queries, span, dims=config.dims, seed=seed
    )
    samples = []
    for durability in durabilities:
        for n_down_writes in inserts_down:
            index = load_index(
                "mlight", config, base_points,
                overlay="chord", n_peers=n_peers, durability=durability,
            )
            dht = index.dht
            truth = truth_sets(index, queries)
            report = run_churn(
                dht, n_crashes,
                join_weight=0.0, leave_weight=0.0, fail_weight=1.0,
                min_peers=n_peers - n_crashes - 1, seed=seed,
            )
            victims = [event.peer for event in report.events]
            for point in down_points[:n_down_writes]:
                try:
                    index.insert(point)
                except ReproError:
                    # A lost interior node can make an insert path
                    # unresolvable; skipped writes simply don't add to
                    # the reconciliation bill.
                    continue
            recall_down = recall(index, queries, truth).recall
            dht.stats.reset()
            for victim in victims:
                if durability is None:
                    dht.join(victim)
                else:
                    dht.restart(victim)
                dht.stabilize_all(2)
            recall_after = recall(index, queries, truth).recall
            stats = dht.stats
            store_bytes = sum(
                message_sizes(key, value)[0]
                for key, value in dht.items()
            )
            samples.append(
                RestartSample(
                    durability=durability or "none",
                    crashes=len(victims),
                    inserts_down=n_down_writes,
                    recall_down=recall_down,
                    recall_after=recall_after,
                    replayed=stats.restart_replayed,
                    repaired=(
                        stats.restart_reconciled + stats.restart_rehomed
                    ),
                    repair_bytes=stats.restart_repair_bytes,
                    store_keys=dht.key_count(),
                    store_bytes=store_bytes,
                )
            )
    return samples
