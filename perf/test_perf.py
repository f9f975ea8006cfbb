"""Checks of the benchmark itself, at tiny scale (one pass per run).

    PYTHONPATH=src python -m pytest perf/ -q
"""

from __future__ import annotations

import json
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(PERF_DIR), str(PERF_DIR.parent / "src")]

import floor  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((PERF_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _run(capsys, workload: str, trace: int, seed: int = 3):
    """``run.main`` at the smallest budget; (exit code, result, output)."""
    code = run.main([
        "--workload", workload, "--seed", str(seed),
        "--seconds", "0", "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.splitlines()
    return code, json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", WORKLOADS.values(), ids=lambda w: w.name)
def test_every_end_to_end_metric_with_unit(capsys, workload):
    threads_before = set(threading.enumerate())
    code, result, report = _run(capsys, workload.name, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    # Exact per-kind counts (as replayed), at least 100 of each kind.
    assert report[1].endswith(
        f"n={workload.lookups} lookup/{workload.ranges} range/"
        f"{workload.inserts} insert")
    assert min(workload.lookups, workload.ranges, workload.inserts) >= 100
    # No time budget: the first pass alone, every operation checked.
    assert result["attempted"] == workload.n_ops
    # Nothing left behind: no thread, no temporary directory.
    assert set(threading.enumerate()) <= threads_before
    assert not list(run.OUT_DIR.glob("tmp-*"))


def test_every_per_layer_metric(capsys):
    code, result, _ = _run(capsys, "svc_journal", trace=1)
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert value["harness.self_time_coverage"] >= 0.9
    assert value["dht.durable.appends_per_insert"] >= 1
    assert value["service.wire.frames_per_op"] > 0
    assert (run.OUT_DIR / "trace_svc_journal.jsonl").stat().st_size > 0


def test_benchmark_json_names_and_workloads():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert SPEC["paths"] == ["perf"]


def test_counts_repeat_exactly(tmp_path):
    def counts(seed):
        prepared = floor.prepare(WORKLOADS["svc_journal"], seed)
        return floor.run_pass(prepared, tmp_path).counts

    first = counts(3)
    assert first["lookups"] > 0 and first["range_rounds"] > 0
    assert first["journal_bytes"] > 0
    assert counts(3) == first
    assert counts(4) != first


def test_deadline_cuts_later_passes_only(tmp_path):
    prepared = floor.prepare(WORKLOADS["sim_query"], 3)
    cut = floor.run_pass(prepared, tmp_path, deadline=0.0)
    assert cut.times == [] and cut.counts is None and cut.setup_s > 0
    measured = floor.measure(prepared, tmp_path, seconds=0)
    assert measured.passes == 1 and measured.counts is not None
    assert all(t < float("inf") for t in measured.floors)


def test_wrong_answer_fails_the_run(capsys, monkeypatch):
    prepare = floor.prepare

    def corrupt(workload, seed):
        prepared = prepare(workload, seed)
        expected = list(prepared.expected)
        victim = [op.kind for op in prepared.ops].index("lookup")
        expected[victim] += 1
        return replace(prepared, expected=expected)

    monkeypatch.setattr(floor, "prepare", corrupt)
    code, result, _ = _run(capsys, "sim_query", trace=0)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == 1
