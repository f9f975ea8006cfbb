"""Smoke-test the service runtime on the running interpreter, no pytest.

CI runs tier-1 on Python 3.10, 3.11 and 3.12; this script is the quick
check for an interpreter that has no pytest.  On both transports it
bulk-loads an index, then runs a cold lookup, a range query, a
splitting insert, a merging delete and a whole-space ``MCAST`` query,
checks every answer against a brute-force scan, and exits non-zero on
the first mismatch.  It also checks that an in-process lookup starts
no asyncio Task.

Usage: ``PYTHONPATH=src python tools/service_smoke.py``.
"""

from __future__ import annotations

import asyncio
import platform
import sys

from repro.common.config import IndexConfig
from repro.common.geometry import Region
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.datasets.synthetic import uniform_points
from repro.mcast import ServiceMulticast
from repro.service.node import ServiceDht

CONFIG = IndexConfig(dims=2, split_threshold=8, merge_threshold=4)
POINTS = uniform_points(400, seed=3)
QUERY = Region((0.2, 0.1), (0.6, 0.5))


def inside(points, region):
    return sorted(p for p in points if region.contains_point_closed(p))


def smoke(transport: str) -> list[str]:
    """Problems found on *transport* (empty: all good)."""
    problems = []

    def check(what, got, want):
        if got != want:
            problems.append(f"{transport}: {what}: {got!r} != {want!r}")

    with ServiceDht(8, transport=transport) as dht:
        bulk_load(dht, POINTS[:300], CONFIG)
        index = MLightIndex(dht, CONFIG)
        created = []

        def factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        async def install():
            asyncio.get_running_loop().set_task_factory(factory)

        dht._bridge().run(install())
        found = index.lookup(POINTS[0]).bucket
        check("lookup", found.covers(POINTS[0]), True)
        if transport == "asyncio":
            check("tasks per lookup", len(created), 0)
        got = sorted(r.key for r in index.range_query(QUERY).records)
        check("range query", got, inside(POINTS[:300], QUERY))
        puts = dht.stats.puts
        for point in POINTS[300:]:
            index.insert(point)
        check("inserts split", dht.stats.puts > puts, True)
        removes = dht.stats.removes
        for point in POINTS[:200]:
            check("delete", index.delete(point), True)
        check("deletes merge", dht.stats.removes > removes, True)
        index.check_invariants()
        everything = Region((0.0, 0.0), (1.0, 1.0))
        mcast = ServiceMulticast(dht, 2, CONFIG.max_depth)
        got = sorted(r.key for r in mcast.query(everything).records)
        check("mcast query", got, sorted(POINTS[200:]))
    return problems


def main() -> int:
    problems = [p for transport in ("asyncio", "tcp") for p in smoke(transport)]
    for problem in problems:
        print("FAIL", problem)
    status = "FAIL" if problems else "ok"
    print(f"service smoke {status} on Python {platform.python_version()}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
