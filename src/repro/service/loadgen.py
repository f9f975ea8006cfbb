"""Open-loop QPS load generator for the service plane.

Replays a :func:`~repro.workloads.traces.request_trace` against an
index at a *target* rate: operation *i* is due at ``i / qps`` seconds
after start, dispatched to a worker pool the moment it is due, whether
or not earlier operations finished.  Open-loop measurement is the whole
point — a slow server cannot slow the arrival process down, so latency
percentiles include queueing delay, the number a user behind "heavy
traffic from millions of users" actually experiences (closed-loop
generators flatter the server by waiting for it).

Per-operation latency is measured from the operation's *scheduled* time
to its completion; achieved throughput is completed operations over the
span from first schedule to last completion.  A run prints a rendered
percentile table; ``--out`` also writes the report as JSON.

Run it from the command line against either runtime::

    python -m repro.service.loadgen --runtime asyncio \\
        --records 100000 --peers 8 --qps 500 --duration 10 \\
        --out load.json

Mutating steps (inserts) are serialised through one lock — index
maintenance (splits) is not concurrency-safe, and the service plane's
job here is to measure the runtime, not to interleave writers; query
steps run fully concurrently.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.common.config import IndexConfig
from repro.common.errors import ReproError
from repro.core.bulkload import bulk_load
from repro.core.index import MLightIndex
from repro.datasets.synthetic import uniform_points
from repro.experiments.tables import format_table
from repro.runtime import RuntimeConfig, create_dht
from repro.workloads.traces import Operation, request_trace, run_operation

#: Latency percentiles the report carries, in report order.
PERCENTILES = (50, 95, 99)


def percentile(sorted_values: list[float], q: float) -> float:
    """The *q*-th percentile of ascending *sorted_values* (nearest-rank
    with linear interpolation; 0.0 for an empty sample)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return sorted_values[low] * (1 - fraction) + sorted_values[high] * fraction


def latency_summary(latencies: list[float]) -> dict[str, float]:
    """p50/p95/p99/mean/max of *latencies* (seconds), in milliseconds."""
    ordered = sorted(latencies)
    summary = {
        f"p{q}": percentile(ordered, q) * 1000.0 for q in PERCENTILES
    }
    summary["mean"] = (
        sum(ordered) / len(ordered) * 1000.0 if ordered else 0.0
    )
    summary["max"] = ordered[-1] * 1000.0 if ordered else 0.0
    return summary


@dataclass(frozen=True, slots=True)
class LoadReport:
    """One load-generator run, ready for JSON and table rendering."""

    runtime: str
    peers: int
    records: int
    target_qps: float
    duration_s: float
    operations: int
    completed: int
    failed: int
    achieved_qps: float
    latency_ms: dict[str, float]
    latency_ms_by_op: dict[str, dict[str, float]] = field(
        default_factory=dict
    )

    def achieved_fraction(self) -> float:
        """Achieved over target throughput (the CI sanity gate)."""
        if self.target_qps <= 0:
            return 0.0
        return self.achieved_qps / self.target_qps

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def render(self) -> str:
        """The percentile table the walkthrough in docs/usage.md reads."""
        headers = ["metric", "value"]
        rows = [
            ["runtime", self.runtime],
            ["peers", self.peers],
            ["records loaded", self.records],
            ["operations", self.operations],
            ["completed / failed", f"{self.completed} / {self.failed}"],
            ["target QPS", f"{self.target_qps:.0f}"],
            ["achieved QPS", f"{self.achieved_qps:.1f}"],
            ["p50 latency (ms)", f"{self.latency_ms['p50']:.3f}"],
            ["p95 latency (ms)", f"{self.latency_ms['p95']:.3f}"],
            ["p99 latency (ms)", f"{self.latency_ms['p99']:.3f}"],
            ["mean latency (ms)", f"{self.latency_ms['mean']:.3f}"],
            ["max latency (ms)", f"{self.latency_ms['max']:.3f}"],
        ]
        overall = format_table(
            headers, rows, title="service-plane open-loop load"
        )
        if not self.latency_ms_by_op:
            return overall
        op_rows = [
            [
                kind,
                f"{summary['p50']:.3f}",
                f"{summary['p95']:.3f}",
                f"{summary['p99']:.3f}",
            ]
            for kind, summary in sorted(self.latency_ms_by_op.items())
        ]
        by_op = format_table(
            ["operation", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
            op_rows,
            title="latency by operation type",
        )
        return overall + "\n" + by_op


def run_load(
    index,
    operations: list[Operation],
    target_qps: float,
    *,
    workers: int = 16,
    runtime_label: str = "unknown",
    records_loaded: int = 0,
    n_peers: int = 0,
) -> LoadReport:
    """Drive *operations* at *target_qps* and measure latency.

    The index must already be loaded; *operations* normally come from
    :func:`~repro.workloads.traces.request_trace` over the loaded
    points.
    """
    if target_qps <= 0:
        raise ReproError(f"target_qps must be > 0, got {target_qps}")
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    if not operations:
        raise ReproError("run_load needs at least one operation")

    interval = 1.0 / target_qps
    mutation_lock = threading.Lock()
    latencies: list[float] = []
    latencies_by_kind: dict[str, list[float]] = {}
    failures = [0]
    tally_lock = threading.Lock()
    last_done = [0.0]

    def execute(operation: Operation, scheduled: float) -> None:
        try:
            if operation.kind in ("insert", "delete"):
                with mutation_lock:
                    run_operation(index, operation)
            else:
                run_operation(index, operation)
        except Exception:
            with tally_lock:
                failures[0] += 1
            return
        done = time.perf_counter()
        with tally_lock:
            latencies.append(done - scheduled)
            latencies_by_kind.setdefault(operation.kind, []).append(
                done - scheduled
            )
            last_done[0] = max(last_done[0], done)

    pool = ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="repro-loadgen"
    )
    started = time.perf_counter()
    try:
        for position, operation in enumerate(operations):
            scheduled = started + position * interval
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            pool.submit(execute, operation, scheduled)
    finally:
        pool.shutdown(wait=True)

    completed = len(latencies)
    span = max(last_done[0] - started, 1e-9)
    latency_ms = latency_summary(latencies)
    return LoadReport(
        runtime=runtime_label,
        peers=n_peers,
        records=records_loaded,
        target_qps=target_qps,
        duration_s=len(operations) * interval,
        operations=len(operations),
        completed=completed,
        failed=failures[0],
        achieved_qps=completed / span,
        latency_ms=latency_ms,
        latency_ms_by_op={
            kind: latency_summary(values)
            for kind, values in sorted(latencies_by_kind.items())
        },
    )


def build_loaded_index(
    runtime: str,
    *,
    n_peers: int,
    n_records: int,
    dims: int = 2,
    seed: int = 0,
):
    """A paper-parameter index over *runtime*, bulk-loaded with uniform
    points.  Returns ``(index, points)``; close ``index.dht`` when the
    runtime is a service one."""
    config = IndexConfig(dims=dims, runtime=runtime)
    dht = create_dht(RuntimeConfig(kind=runtime, n_peers=n_peers))
    points = uniform_points(n_records, dims=dims, seed=seed)
    bulk_load(dht, points, config)
    return MLightIndex(dht, config), points


def publish(report: LoadReport, path: Path) -> Path:
    """Write the report as JSON to *path*."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report.to_json() + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Open-loop QPS load generator for the service plane"
    )
    parser.add_argument(
        "--runtime", default="asyncio", choices=("sim", "asyncio", "tcp")
    )
    parser.add_argument("--peers", type=int, default=8)
    parser.add_argument("--records", type=int, default=100_000)
    parser.add_argument("--qps", type=float, default=500.0)
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--workers", type=int, default=16)
    parser.add_argument(
        "--skew",
        type=float,
        default=0.0,
        help="Zipf exponent of the query key distribution "
        "(0 = uniform, the default; E13 uses 1.1)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the report as JSON to this path",
    )
    args = parser.parse_args(argv)

    print(
        f"loading {args.records} records into {args.peers} "
        f"{args.runtime!r} peers ...",
        flush=True,
    )
    index, points = build_loaded_index(
        args.runtime,
        n_peers=args.peers,
        n_records=args.records,
        seed=args.seed,
    )
    try:
        operations = request_trace(
            points,
            max(1, round(args.qps * args.duration)),
            skew=args.skew,
            seed=args.seed,
        )
        print(
            f"replaying {len(operations)} operations at "
            f"{args.qps:.0f} QPS ...",
            flush=True,
        )
        report = run_load(
            index,
            operations,
            args.qps,
            workers=args.workers,
            runtime_label=args.runtime,
            records_loaded=args.records,
            n_peers=args.peers,
        )
    finally:
        index.dht.close()
    print(report.render())
    if args.out is not None:
        print(f"wrote {publish(report, args.out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
