"""The m-LIGHT performance benchmark: one command, every metric.

    python3 perf/run.py --workload sim_query --seed 0 --seconds 24 --trace 0
    python3 perf/run.py --all --seed 0
    python3 perf/run.py --all --repeat 10

A single-workload run prepares the workload's inputs from ``--seed``,
floor-times it for ``--seconds`` (see ``floor.py``), checks every
answer, prints every metric by name with its unit, and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` does the
separate traced run and reports the per-layer metrics.  ``--all`` runs
every workload, each in its own process (so ``peak_rss_mb`` is the
workload's own); ``--repeat N`` runs two sets of N seeds and reports
the spread of every end-to-end metric next to its bound.

Results and traces go to ``perf/out/`` only.  ``perf/README.md``
explains the design and how to read the numbers.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

STARTED = time.perf_counter()


def _bootstrap() -> None:
    """Pin string hashing (set iteration order feeds timings), pin the
    process to one CPU, and put the program under test and this
    directory on the import path.

    One operation is in flight at a time, so the client thread and the
    runtime's loop or pool thread alternate and one CPU loses nothing.
    On two vCPUs of a busy host every hand-off between them waits for
    the other vCPU to be scheduled: at 60 % steal ``svc_scan`` ran at
    117 ops/s unpinned and 1096 ops/s pinned.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (REPO / "src" / "repro").is_dir():
        sys.exit(f"perf/run.py: no program to measure at {REPO / 'src'}")
    for path in (str(REPO / "src"), str(PERF_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _commit() -> str:
    """HEAD's hash read from ``.git`` directly (a checkout without one
    is stamped ``unknown``; nothing outside the checkout is searched)."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _stamp(args, measurement) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "store": measurement.store_kind,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "pinned": hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) == 1,
        "L": len(measurement.prepared.ops),
        "passes": measurement.passes,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _harness_metrics(measurement, prep_s: float) -> dict:
    n_ops = len(measurement.prepared.ops)
    floor_ops_per_s = n_ops / measurement.floor_total_s
    return {
        "harness.raw_ops_per_s": (measurement.raw_ops_per_s, "ops/s"),
        "harness.noise_ratio": (
            measurement.raw_ops_per_s / floor_ops_per_s, "ratio"),
        "harness.speed": (measurement.speed, "ratio"),
        "harness.passes": (measurement.passes, "count"),
        "harness.prep_s": (prep_s, "s"),
    }


def per_layer_metrics(plain, traced, kernels: dict, prep_s: float) -> dict:
    """Every per-layer metric: ``name -> (value, unit)``.

    *plain* and *traced* are the untraced and traced measurements of
    the same prepared workload; *kernels* are the kernel timings.
    Times are at reference speed, like the end-to-end ones.
    """
    import spans
    from spans import ratio

    workload = plain.prepared.workload
    counts = plain.counts
    n_ops = workload.n_ops
    metrics = {}
    op_table = spans.layer_table(traced.best_op_spans)
    for layer in spans.OP_LAYERS:
        self_s, calls = op_table[layer]
        metrics[f"{layer}.self_ms_per_op"] = (
            1e3 * traced.speed * self_s / n_ops, "ms")
        metrics[f"{layer}.calls_per_op"] = (calls / n_ops, "count")
    setup_table = spans.layer_table([traced.best_setup_spans])
    for layer in spans.SETUP_LAYERS:
        metrics[f"setup.{layer}.self_ms"] = (
            1e3 * traced.speed * setup_table[layer][0], "ms")

    hints = sum(
        counts[k] for k in ("cache_hits", "cache_stale", "cache_misses"))
    metrics.update({
        "core.lookup.probes_per_lookup": (
            counts["lookup_probes"] / workload.lookups, "count"),
        "core.cache.hit_ratio": (ratio(counts["cache_hits"], hints), "ratio"),
        "core.rangequery.leaves_per_query": (
            counts["range_leaves"] / workload.ranges, "count"),
        "core.rangequery.lookups_per_leaf": (
            counts["range_lookups"] / counts["range_leaves"], "count"),
        "core.plane.keys_per_round": (
            counts["range_lookups"] / counts["range_batch_rounds"], "count"),
        "core.index.records_moved_per_insert": (
            counts["records_moved"] / workload.inserts, "count"),
        "dht.durable.journal_bytes_per_user_byte": (
            counts["journal_bytes"] / (16 * counts["total_records"]),
            "ratio"),
        "service.node.handoff_ms_per_frame": (
            1e3 * traced.speed * ratio(
                op_table["dht.api"][0], op_table["service.node"][1]),
            "ms"),
    })
    metrics.update(
        spans.span_counts(plain.prepared.ops, traced.best_op_spans))
    metrics.update({name: (value, "us") for name, value in kernels.items()})
    metrics["harness.trace_overhead"] = (
        traced.speed * traced.floor_total_s
        / (plain.speed * plain.floor_total_s), "ratio")
    metrics["harness.self_time_coverage"] = (
        sum(row[0] for row in op_table.values()) / traced.floor_total_s,
        "ratio")
    metrics.update(_harness_metrics(plain, prep_s))
    return metrics


def run_one(args) -> int:
    """Measure one workload in this process; the exit code."""
    import floor
    import spans
    from repro.dht.api import shutdown_shared_executor
    from workloads import WORKLOADS

    prepared = floor.prepare(WORKLOADS[args.workload], args.seed)
    # Process start to first pass: imports, generation, oracle.
    prep_s = time.perf_counter() - STARTED
    OUT_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix="tmp-"))
    try:
        # A run ends about --seconds plus one pass from here.  Should the
        # program under test ever block for good, say where and exit 1.
        faulthandler.dump_traceback_later(
            max(170, 3 * args.seconds), exit=True, file=sys.__stderr__)
        if not args.trace:
            plain = floor.measure(prepared, tmp_root, seconds=args.seconds)
            metrics = floor.end_to_end_metrics(plain, _peak_rss_mb())
            extras = _harness_metrics(plain, prep_s)
            attempted, failed = plain.attempted, plain.failed
        else:
            began = time.perf_counter()
            # Half the budget for the untraced floors the traced ones
            # are compared with, the rest for the traced passes.
            plain = floor.measure(
                prepared, tmp_root, seconds=args.seconds / 2)
            kernels = spans.kernel_timings(prepared, tmp_root)
            recorder = spans.Recorder()
            recorder.install()
            try:
                traced = floor.measure(
                    prepared, tmp_root, recorder=recorder,
                    seconds=args.seconds - (time.perf_counter() - began),
                )
            finally:
                recorder.uninstall()
            metrics = per_layer_metrics(plain, traced, kernels, prep_s)
            extras = {}
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            spans.write_trace(
                OUT_DIR / f"trace_{args.workload}.jsonl",
                traced.best_op_spans, traced.best_setup_spans,
            )
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        shutdown_shared_executor()
        faulthandler.cancel_dump_traceback_later()

    stamp = _stamp(args, plain)
    kinds = Counter(op.kind for op in prepared.ops)
    print(f"# {args.workload}  " + "  ".join(
        f"{key}={value}" for key, value in stamp.items() if key != "workload"))
    print(f"# failed_ops={failed} / attempted={attempted}  n=" + "/".join(
        f"{kinds[k]} {k}" for k in floor.KINDS))
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"{name:48s} {value:14.6g} {unit}")

    def result(shown: dict) -> dict:
        return {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in shown.items()
            },
        }

    with open(OUT_DIR / "results.jsonl", "a") as out:
        out.write(json.dumps(
            {**stamp, **result({**metrics, **extras})}) + "\n")
    print(json.dumps(result(metrics)))
    return 0 if failed == 0 else 1


def _spawn(workload: str, args, seed: int, capture: bool):
    command = [
        sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    return subprocess.run(
        command, stdout=subprocess.PIPE if capture else None, text=True)


def _selected(args) -> list[str]:
    from workloads import WORKLOADS

    return list(WORKLOADS) if args.workload == "all" else [args.workload]


def run_all(args) -> int:
    """Every workload, one process each; non-zero if any failed."""
    codes = [
        _spawn(workload, args, args.seed, capture=False).returncode
        for workload in _selected(args)
    ]
    return max(codes)


def _spread_rows(runs: list[dict], spec: list[dict]) -> list[dict]:
    rows = []
    for metric in spec:
        values = [run[metric["name"]]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        rows.append({
            **metric, "median": median, "q1": q1, "q3": q3,
            "iqr": (q3 - q1) / median,
            "range": (max(values) - min(values)) / median,
        })
    return rows


def repeat(args) -> int:
    """Two sets of ``--repeat`` runs (seeds ``--seed``, ``--seed`` + 1,
    ...) per workload, judged the way a change to this benchmark is:
    within a set, each end-to-end metric's interquartile spread must
    stay within its bound (``setup_s`` is reported, not judged); the
    second set's median may not be worse than the first's by more than
    the bound."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    verdict = 0
    for workload in _selected(args):
        sets = []
        for number in (1, 2):
            runs = []
            for seed in range(args.seed, args.seed + args.repeat):
                done = _spawn(workload, args, seed, capture=True)
                if done.returncode != 0:
                    print(f"{workload} seed {seed}: exit {done.returncode}")
                    return done.returncode
                runs.append(
                    json.loads(done.stdout.splitlines()[-1])["metrics"])
            rows = _spread_rows(runs, spec)
            sets.append(rows)
            print(f"\n### {workload}, set {number}: {args.repeat} runs, "
                  f"seeds {args.seed}..{args.seed + args.repeat - 1}\n")
            print("| metric | unit | median | q1 | q3 | (q3-q1)/median "
                  "| (max-min)/median | bound | |")
            print("|---|---|---|---|---|---|---|---|---|")
            for row in rows:
                judged = row["name"] != "setup_s"
                bad = judged and row["iqr"] > row["bound"]
                verdict |= bad
                print(
                    f"| {row['name']} | {row['unit']} | {row['median']:.6g} "
                    f"| {row['q1']:.6g} | {row['q3']:.6g} "
                    f"| {row['iqr']:.4f} | {row['range']:.4f} "
                    f"| {row['bound']} | {'OVER' if bad else ''} |")
        print(f"\n### {workload}: set 2 median against set 1\n")
        print("| metric | set 1 | set 2 | worse by | bound | |")
        print("|---|---|---|---|---|---|")
        for first, second in zip(*sets):
            drift = (second["median"] - first["median"]) / first["median"]
            if first["better"] == "higher":
                drift = -drift
            bad = drift > first["bound"]
            verdict |= bad
            print(
                f"| {first['name']} | {first['median']:.6g} "
                f"| {second['median']:.6g} | {drift:+.4f} "
                f"| {first['bound']} | {'OVER' if bad else ''} |")
        sys.stdout.flush()
    return int(verdict)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument(
        "--all", dest="workload", action="store_const", const="all",
        help="every workload (the default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=24,
        help="time budget of one run's measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=0, metavar="N",
        help="two sets of N runs; report every metric's spread")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    _bootstrap()
    sys.exit(main())
