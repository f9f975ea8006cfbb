"""E15 — the dissemination plane: prefix multicast + continuous queries.

Two measurements over the same m-LIGHT tree:

* **Multicast efficiency** — the same range-query workload executed by
  client fan-out (the client engine, ``index.range_query``: every
  probe is an initiator-originated message) and by prefix multicast
  (the initiator sends exactly one
  message; every further resolution originates at a forwarding peer).
  The gate: identical answers, identical DHT-lookup and round meters,
  and the initiator's message count collapsing from O(#branches) to 1.
* **Continuous queries** — a client subscribes to a region, the writer
  drives inserts (splits), deletes (merges), then a crash of a
  subscription-table rendezvous owner on a durable ring with inserts
  during the downtime, restart, and a flush.  The gate: every matching
  insert delivered exactly once — live pushes while the owner is up,
  queued-and-flushed delivery for downtime inserts, no duplicates from
  split re-homing.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from collections.abc import Sequence

from repro.common.config import IndexConfig
from repro.common.errors import IndexCorruptionError, NodeUnreachableError
from repro.common.geometry import (
    Point,
    Region,
    region_of_label,
)
from repro.core.naming import naming_function
from repro.experiments.harness import load_index
from repro.mcast import ContinuousQueryPlane, MulticastRuntime, sub_key
from repro.obs.registry import MetricsRegistry
from repro.workloads.queries import uniform_range_queries


@dataclass(frozen=True, slots=True)
class MulticastSample:
    """Fan-out vs multicast over one overlay, summed over the workload."""

    overlay: str
    queries: int
    fanout_initiator_msgs: int  # client-originated resolutions, total
    mcast_initiator_msgs: int  # stats.mcasts delta, total
    lookups_fanout: int
    lookups_mcast: int
    rounds_fanout: int
    rounds_mcast: int
    answers_equal: bool

    COLUMNS = (
        "overlay", "queries",
        ("fan-out init msgs", "fanout_initiator_msgs"),
        ("mcast init msgs", "mcast_initiator_msgs"),
        (
            "lookups (fan/mc)",
            lambda sample: f"{sample.lookups_fanout}/{sample.lookups_mcast}",
        ),
        (
            "rounds (fan/mc)",
            lambda sample: f"{sample.rounds_fanout}/{sample.rounds_mcast}",
        ),
        "answers_equal",
    )


@dataclass(frozen=True, slots=True)
class ContinuousSample:
    """One end-to-end continuous-query run on a durable ring."""

    inserts: int  # matching inserts issued across all phases
    delivered: int  # pushes that reached the subscriber
    duplicates: int
    missing: int
    invalidations: int  # proactive re-homing notifications received
    queued_down: int  # inserts queued while the rendezvous owner was down
    flushed: int  # queued inserts delivered after restart
    pushes: int  # stats.pushes (includes invalidation traffic)
    exactly_once: bool

    COLUMNS = (
        ("matching inserts", "inserts"), "delivered",
        ("dupes", "duplicates"), "missing", "invalidations", "queued_down",
        "flushed", "pushes", "exactly_once",
    )


def run_multicast_efficiency(
    points: Sequence[Point],
    config: IndexConfig,
    overlays: Sequence[str] = ("chord", "kademlia", "pastry"),
    n_peers: int = 12,
    n_queries: int = 10,
    span: float = 0.3,
    seed: int = 0,
) -> list[MulticastSample]:
    """The fan-out-vs-multicast comparison, one sample per overlay."""
    queries = uniform_range_queries(
        n_queries, span, dims=config.dims, seed=seed
    )
    samples = []
    for overlay in overlays:
        index = load_index(
            "mlight", config, points, overlay=overlay, n_peers=n_peers
        )
        mcast = MulticastRuntime(index.dht, config.dims, config.max_depth)
        meters = MetricsRegistry.for_index(index)
        before = meters.snapshot()
        fan_results = [index.range_query(query) for query in queries]
        fan_spent = meters.delta(before)
        before = meters.snapshot()
        mc_results = [mcast.query(query) for query in queries]
        mc_spent = meters.delta(before)
        samples.append(
            MulticastSample(
                overlay=overlay,
                queries=len(queries),
                # Fan-out: every probe of the client engine is a
                # client-originated message.  Multicast: only the
                # ``mcasts`` frame is.
                fanout_initiator_msgs=fan_spent["dht.lookups"],
                mcast_initiator_msgs=mc_spent["dht.mcasts"],
                lookups_fanout=fan_spent["dht.lookups"],
                lookups_mcast=mc_spent["dht.lookups"],
                rounds_fanout=sum(result.rounds for result in fan_results),
                rounds_mcast=sum(result.rounds for result in mc_results),
                answers_equal=all(
                    sorted(record.key for record in fan.records)
                    == sorted(record.key for record in mc.records)
                    for fan, mc in zip(fan_results, mc_results)
                ),
            )
        )
    return samples


def run_continuous_query(
    points: Sequence[Point],
    config: IndexConfig,
    n_peers: int = 10,
) -> ContinuousSample:
    """Subscribe, churn the tree, crash-restart a rendezvous owner."""
    region = Region((0.2,) * config.dims, (0.7,) * config.dims)
    base = list(points[: max(len(points) // 3, 40)])
    live_batch = list(points[len(base): 2 * len(base)])
    with tempfile.TemporaryDirectory() as tmp:
        index = load_index(
            "mlight", config, base,
            overlay="chord", n_peers=n_peers, durability="log", data_dir=tmp,
        )
        dht = index.dht
        plane = ContinuousQueryPlane(index)
        subscriber = plane.subscribe(region)
        expected: list[Point] = []
        # Phase 1 — live inserts driving splits.
        for point in live_batch:
            index.insert(point)
            if region.contains_point_closed(point):
                expected.append(point)
        # Phase 2 — deletes driving merges (and proactive
        # invalidations at the subscriber).
        for point in live_batch[: int(len(live_batch) * 0.8)]:
            index.delete(point)
        # Phase 3 — crash the rendezvous owner of a covered leaf and
        # insert inside that leaf during the downtime.
        queued_down = 0
        victim = None
        for label in sorted(plane.covered):
            cell = region_of_label(label, config.dims)
            mid_point = tuple(
                min(max((lo + hi) / 2, 0.2001), 0.6999)
                for lo, hi in zip(cell.lows, cell.highs)
            )
            if not cell.contains_point(mid_point):
                continue
            candidate = dht.peer_of(
                sub_key(naming_function(label, config.dims))
            )
            dht.fail(candidate)
            try:
                index.insert(mid_point)
            except (NodeUnreachableError, IndexCorruptionError):
                # The victim also owned a bucket on the insert path
                # (unreachable on a static ring, a re-homed miss on
                # Chord) — restore it and try the next covered leaf.
                dht.restart(candidate)
                continue
            expected.append(mid_point)
            if plane.pending:
                queued_down = len(plane.pending)
                victim = candidate
                break
            dht.restart(candidate)
        # Phase 4 — restart and flush: downtime inserts delivered
        # exactly once from the replayed durable table.
        flushed = 0
        if victim is not None:
            dht.restart(victim)
            flushed = plane.flush_pending()
        delivered = subscriber.delivered_keys
        counts = {key: delivered.count(key) for key in set(delivered)}
        duplicates = sum(c - 1 for c in counts.values() if c > 1)
        missing = sum(1 for p in expected if counts.get(p, 0) == 0)
        return ContinuousSample(
            inserts=len(expected),
            delivered=len(delivered),
            duplicates=duplicates,
            missing=missing,
            invalidations=len(subscriber.invalidations),
            queued_down=queued_down,
            flushed=flushed,
            pushes=dht.stats.pushes,
            exactly_once=(duplicates == 0 and missing == 0),
        )
