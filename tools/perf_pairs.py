"""Alternating parent/change pairs of the ``perf/`` benchmark.

    python tools/perf_pairs.py --parent <rev> [--pairs 10] [--seed 100]
                               [--workload svc_journal ...] [--out runs.json]

Checks ``<rev>`` out with ``git worktree`` under a temporary directory
(or measures an existing checkout given as ``--parent-dir``), then for
every workload runs ``--pairs`` pairs of

    python3 perf/run.py --workload <w> --seed <s> --seconds 24 --trace 0

one run in the parent checkout and one in this one, same seed,
alternating which side goes first.  Prints, per workload, every
end-to-end metric of ``BENCHMARK.json`` as median [Q1, Q3] per side, the
change/parent ratio of the medians, the pairs the change won (ties
count for neither side) and a verdict:

* ``WORSE`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the parent's own quartile spread is wider than the
  bound, and not every run of the change beats every run of the parent;
* ``gain`` — the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile distance;
* ``ok`` — anything else.

Counts (unit ``count``) must repeat exactly per seed on both sides; a
seed where they differ is listed.  ``make perf-pairs PARENT=<rev>``
runs this with the defaults.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in *checkout*; its closing JSON line."""
    done = subprocess.run(
        [
            "python3", str(checkout / "perf" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.splitlines()
    if not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} printed nothing "
                 f"(exit {done.returncode})")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One table row: medians, quartiles, ratio, pairs won, verdict."""
    higher = metric["better"] == "higher"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    lost = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    worse_by = (p_med - c_med if higher else c_med - p_med) / p_med
    if higher:
        dominates = min(change) > max(parent)
    else:
        dominates = max(change) < min(parent)
    if worse_by > metric["bound"]:
        verdict = "WORSE"
    elif (p_q3 - p_q1) / p_med > metric["bound"] and not dominates:
        verdict = "unresolved"
    elif (
        worse_by < 0
        and won >= 0.9 * len(parent)
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        verdict = "gain"
    else:
        verdict = "ok"
    return {
        "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
        "ratio": c_med / p_med, "won": won, "lost": lost, "verdict": verdict,
    }


def report(workload: str, spec: list[dict], runs: list[dict]) -> bool:
    """Print *workload*'s table; True when nothing is WORSE or failed."""
    seeds = [run["seed"] for run in runs]
    print(f"\n### {workload}: {len(runs)} alternating pairs, "
          f"seeds {seeds[0]}..{seeds[-1]}\n")
    print("| metric | unit | parent median [Q1, Q3] | change median "
          "[Q1, Q3] | change/parent | pairs won | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    fine = True
    for metric in spec:
        name = metric["name"]
        sides = {
            side: [run[side]["metrics"][name]["value"] for run in runs]
            for side in ("parent", "change")
        }
        row = judge(metric, sides["parent"], sides["change"])
        fine &= row["verdict"] != "WORSE"
        shown = {
            side: "{:.5g} [{:.5g}, {:.5g}]".format(*row[side])
            for side in sides
        }
        print(
            f"| {name} | {metric['unit']} | {shown['parent']} "
            f"| {shown['change']} | {row['ratio']:.4f} "
            f"| {row['won']}/{len(runs)} | {metric['bound']} "
            f"| {row['verdict']} |")
        if metric["unit"] == "count":
            differing = [
                run["seed"] for run, p, c
                in zip(runs, sides["parent"], sides["change"]) if p != c
            ]
            if differing:
                fine = False
                print(f"\n`{name}` differs at seeds {differing}\n")
    for side in ("parent", "change"):
        failed = sum(run[side]["failed"] for run in runs)
        attempted = sum(run[side]["attempted"] for run in runs)
        fine &= failed == 0
        print(f"\n{side}: {failed} failed of {attempted} operations")
    sys.stdout.flush()
    return fine


def main(argv=None) -> int:
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--parent", help="revision to compare against")
    where.add_argument(
        "--parent-dir", type=Path,
        help="an existing checkout of the parent, used as it is")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seed", type=int, default=100,
        help="first seed; pair i runs both sides at seed + i")
    parser.add_argument(
        "--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="repeatable; every workload when omitted")
    parser.add_argument("--out", type=Path, help="write every run as JSON")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        if args.parent_dir is not None:
            parent = args.parent_dir.resolve()
        else:
            parent = Path(scratch) / "parent"
            subprocess.run(
                ["git", "worktree", "add", "--detach", str(parent),
                 args.parent],
                cwd=REPO, check=True, stdout=subprocess.DEVNULL)
        try:
            results = {}
            fine = True
            for workload in args.workload or names:
                runs = []
                for number in range(args.pairs):
                    seed = args.seed + number
                    sides = {"parent": parent, "change": REPO}
                    order = list(sides) if number % 2 == 0 else list(sides)[::-1]
                    run = {"seed": seed, "first": order[0]}
                    for side in order:
                        run[side] = run_once(
                            sides[side], workload, seed, args.seconds)
                    runs.append(run)
                results[workload] = runs
                if args.out is not None:
                    args.out.write_text(json.dumps(results, indent=1) + "\n")
                fine &= report(workload, benchmark["end_to_end"], runs)
        finally:
            if args.parent_dir is None:
                subprocess.run(
                    ["git", "worktree", "remove", "--force", str(parent)],
                    cwd=REPO, check=False)
    return 0 if fine else 1


if __name__ == "__main__":
    sys.exit(main())
