"""Churn generation for DHT robustness experiments.

Produces a deterministic schedule of joins, graceful leaves, and
crashes, and applies it to any overlay exposing ``join``/``leave``/
``fail`` — Chord, Kademlia and Pastry all do — interleaved with
stabilization rounds when the overlay has a periodic protocol
(``stabilize_all``).  Overlays that replicate (``replication > 1``
plus a ``repair_replicas`` method, e.g. :class:`~repro.dht.chord.
ChordDht`) are repaired after every membership event and once more at
the end of the run, restoring the replica invariant *between*
consecutive crashes — without this, replicated rings degrade across a
churn burst and ``survival_ratio`` under-reports what replication
buys.

Used by the churn example, the DHT integration tests and the E10/E12
experiments; the figure reproductions run on a stable membership, as
the paper's evaluation does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ReproError
from repro.common.rng import derive_seed, make_rng
from repro.dht.api import Dht


@dataclass(frozen=True, slots=True)
class ChurnEvent:
    """One membership change."""

    kind: str  # "join" | "leave" | "fail" | "restart"
    peer: str


@dataclass(slots=True)
class ChurnReport:
    """What a churn run did and what survived it."""

    events: list[ChurnEvent] = field(default_factory=list)
    keys_before: int = 0
    keys_after: int = 0
    repairs: int = 0  # replica copies rewritten by repair passes

    @property
    def survival_ratio(self) -> float:
        """Fraction of stored keys still present after the churn run."""
        if self.keys_before == 0:
            return 1.0
        return self.keys_after / self.keys_before


def generate_schedule(
    n_events: int,
    join_weight: float = 1.0,
    leave_weight: float = 1.0,
    fail_weight: float = 0.0,
    seed: int = 0,
    restart_weight: float = 0.0,
) -> list[str]:
    """Return *n_events* event kinds drawn by the given weights.

    ``restart`` events recover a previously crashed peer from its
    durable log (:meth:`repro.dht.api.Dht.restart`); they only make
    sense on substrates built with ``durability=...``.

    The schedule stream is sub-seeded with ``derive_seed(seed,
    "churn-schedule")`` so it is independent of the victim-selection
    stream in :func:`run_churn` for every base seed.  (Earlier
    versions seeded the two streams ``seed`` and ``seed + 1``, so the
    schedule for seed N reused the victim stream of seed N - 1;
    schedules drawn for a given seed differ from those versions.)
    """
    weights = [join_weight, leave_weight, fail_weight, restart_weight]
    names = ("join", "leave", "fail", "restart")
    for name, weight in zip(names, weights):
        if weight < 0:
            raise ReproError(
                f"{name}_weight must be >= 0, got {weight}"
            )
    if sum(weights) <= 0:
        raise ReproError("at least one churn weight must be positive")
    rng = make_rng(derive_seed(seed, "churn-schedule"))
    return rng.choices(list(names), weights=weights, k=n_events)


def _repair(dht: Dht, report: ChurnReport) -> None:
    """Restore the replica invariant when the overlay maintains one."""
    repair = getattr(dht, "repair_replicas", None)
    if repair is not None and getattr(dht, "replication", 1) > 1:
        report.repairs += repair()


def run_churn(
    dht: Dht,
    n_events: int,
    *,
    join_weight: float = 1.0,
    leave_weight: float = 1.0,
    fail_weight: float = 0.0,
    restart_weight: float = 0.0,
    stabilize_rounds: int = 2,
    min_peers: int = 4,
    seed: int = 0,
) -> ChurnReport:
    """Apply a churn schedule to *dht*, stabilizing between events.

    Works on any overlay exposing ``join(name, gateway=...)``,
    ``leave(name)`` and ``fail(name)`` — bare or under a wrapper stack;
    the substrate's ``stabilize_all`` and ``repair_replicas`` are
    driven when present.  Leaves and crashes
    are suppressed while the overlay has *min_peers* or fewer, so the
    ring never churns itself away.

    *restart_weight* > 0 draws kill-and-restart cycles: a restart
    event recovers the oldest still-down crash victim from its durable
    backend (:meth:`repro.dht.api.Dht.restart`) and is skipped while
    no crashed peer is down.  It requires a substrate built with
    ``durability=...``.

    Key accounting (``keys_before`` / ``keys_after``) walks
    :meth:`repro.dht.api.Dht.key_count`, which counts stored keys
    without touching values.

    The victim-selection stream is sub-seeded with
    ``derive_seed(seed, "churn-victims")``; see
    :func:`generate_schedule` for the compatibility note on the old
    ``seed + 1`` scheme.
    """
    rng = make_rng(derive_seed(seed, "churn-victims"))
    report = ChurnReport()
    report.keys_before = dht.key_count()
    *_, substrate = dht.unwrap()
    stabilize = getattr(substrate, "stabilize_all", None)
    next_id = 100_000
    down: list[str] = []  # crash victims awaiting a restart draw
    for kind in generate_schedule(
        n_events, join_weight, leave_weight, fail_weight, seed,
        restart_weight,
    ):
        peers = dht.peers()
        if kind == "join":
            name = f"churn-{next_id}"
            next_id += 1
            dht.join(name, gateway=rng.choice(peers))
        elif kind == "restart":
            if not down:
                continue
            name = down.pop(0)
            dht.restart(name)
        elif len(peers) > min_peers:
            victim = rng.choice(peers)
            if kind == "leave":
                dht.leave(victim)
            else:
                dht.fail(victim)
                down.append(victim)
            name = victim
        else:
            continue
        report.events.append(ChurnEvent(kind, name))
        if stabilize is not None:
            stabilize(stabilize_rounds)
        # Repair between events, not only at the end: two crashes with
        # an unrepaired replica set between them can both land on the
        # same key's holders, losing data replication should have kept.
        _repair(substrate, report)
    if stabilize is not None:
        stabilize(stabilize_rounds)
    _repair(substrate, report)
    report.keys_after = dht.key_count()
    return report
