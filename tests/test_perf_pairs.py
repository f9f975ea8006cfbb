"""``tools/perf_pairs.py``: the verdict rule (``judge`` decides whether a
change is a gain, no worse, worse or unresolved on one metric) and how
an interrupted script stops the run in progress."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_perf_pairs():
    """``tools/perf_pairs.py`` as a module (``tools/`` is not a package)."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import perf_pairs
    finally:
        sys.path.pop(0)
    return perf_pairs


judge = load_perf_pairs().judge

#: Ten parent runs around 100: median 100, quartiles 99.25 and 100.75,
#: so the parent's interquartile distance is 1.5 (1.5 % of the median).
PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def shifted(values, by: float, better: str) -> list[float]:
    """*values* moved by *by* in the better direction (negative: worse)."""
    sign = 1 if better == "higher" else -1
    return [value + sign * by for value in values]


@pytest.fixture(params=["higher", "lower"])
def better(request):
    return request.param


def metric(better: str, bound: float = 0.25) -> dict:
    return {"name": "m", "unit": "ms", "better": better, "bound": bound}


def test_a_median_worse_by_more_than_the_bound_is_worse(better):
    row = judge(metric(better), PARENT, shifted(PARENT, -30, better))
    assert row["verdict"] == "WORSE"
    assert row["won"] == 0 and row["lost"] == 10
    # Within the bound it is no verdict of harm.
    row = judge(metric(better), PARENT, shifted(PARENT, -20, better))
    assert row["verdict"] == "ok"


def test_a_clear_win_on_every_pair_is_a_gain(better):
    row = judge(metric(better), PARENT, shifted(PARENT, 5, better))
    assert row["verdict"] == "gain"
    assert (row["won"], row["lost"]) == (10, 0)
    assert row["parent"] == (100.0, 99.25, 100.75)
    assert row["ratio"] == pytest.approx(1.05 if better == "higher" else 0.95)


def test_a_gain_needs_nine_pairs_in_ten(better):
    change = shifted(PARENT, 5, better)
    change[0] = shifted([PARENT[0]], -1, better)[0]  # one pair lost
    row = judge(metric(better), PARENT, change)
    assert (row["won"], row["lost"], row["verdict"]) == (9, 1, "gain")
    change[1] = shifted([PARENT[1]], -1, better)[0]  # and a second
    row = judge(metric(better), PARENT, change)
    assert (row["won"], row["lost"], row["verdict"]) == (8, 2, "ok")


def test_ties_count_for_neither_side(better):
    change = shifted(PARENT, 5, better)
    change[0] = PARENT[0]
    row = judge(metric(better), PARENT, change)
    assert (row["won"], row["lost"], row["verdict"]) == (9, 0, "gain")
    change[1] = PARENT[1]
    row = judge(metric(better), PARENT, change)
    assert (row["won"], row["lost"], row["verdict"]) == (8, 0, "ok")


def test_a_gain_must_move_the_median_past_the_parent_iqr(better):
    # Every pair won, but by 1.0 against an interquartile distance of 1.5.
    row = judge(metric(better), PARENT, shifted(PARENT, 1, better))
    assert (row["won"], row["verdict"]) == (10, "ok")
    row = judge(metric(better), PARENT, shifted(PARENT, 2, better))
    assert (row["won"], row["verdict"]) == (10, "gain")


def test_a_parent_spread_wider_than_the_bound_is_unresolved(better):
    tight = metric(better, bound=0.01)  # parent IQR / median = 0.015
    row = judge(tight, PARENT, shifted(PARENT, 0.5, better))
    assert row["verdict"] == "unresolved"
    # Unless every change run beats every parent run.
    row = judge(tight, PARENT, shifted(PARENT, 5, better))
    assert row["verdict"] == "gain"
    # Worse by more than the bound stays WORSE, spread or not.
    row = judge(tight, PARENT, shifted(PARENT, -5, better))
    assert row["verdict"] == "WORSE"


#: A stand-in ``perf/run.py``: it makes its scratch directory as the
#: real one does, notes its pid, and sleeps; only its ``finally`` (on
#: the KeyboardInterrupt a SIGINT raises) removes the directory, after
#: marking that it is stopping and taking a moment about it.
STUB_RUN = textwrap.dedent("""\
    import os, pathlib, shutil, tempfile, time
    out = pathlib.Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    (out / "pid").write_text(str(os.getpid()))
    scratch = tempfile.mkdtemp(dir=out, prefix="tmp-")
    try:
        time.sleep(120)
    finally:
        (out / "stopping").touch()
        time.sleep(0.5)
        shutil.rmtree(scratch)
""")


def wait_for(predicate, what: str) -> None:
    deadline = time.monotonic() + 60
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert predicate(), what


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.parametrize("times", [1, 2])
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_a_stopped_script_stops_its_run_and_leaves_no_scratch(tmp_path, signum, times):
    """Signalled mid-run, the script sends the run (its own session)
    SIGINT and waits for it: the run's ``finally`` removes its
    ``perf/out/tmp-*`` directory, and the script exits non-zero with its
    message.  A second signal while it waits does not cut the wait."""
    checkout = tmp_path / "parent"
    (checkout / "perf").mkdir(parents=True)
    (checkout / "perf" / "run.py").write_text(STUB_RUN)
    out = checkout / "perf" / "out"
    script = subprocess.Popen(
        [
            sys.executable, str(ROOT / "tools" / "perf_pairs.py"),
            "--parent-dir", str(checkout), "--pairs", "1",
            "--workload", "sim_query", "--seconds", "1",
        ],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        wait_for(lambda: list(out.glob("tmp-*")), "the stub run never started")
        script.send_signal(signum)
        if times == 2:
            wait_for((out / "stopping").exists, "the stub run was not stopped")
            script.send_signal(signum)
        _, stderr = script.communicate(timeout=60)
    finally:
        if script.poll() is None:
            script.kill()
            script.wait()
    assert script.returncode != 0
    # The stub's own traceback may come first; the script's is none.
    stderr = stderr.decode()
    assert stderr.endswith(f"\nperf_pairs: stopped by {signal.Signals(signum).name}\n")
    assert "perf_pairs.py" not in stderr
    assert not list(out.glob("tmp-*"))
    assert _gone(int((out / "pid").read_text()))


def test_an_interrupt_after_the_run_ended_still_stops_cleanly(tmp_path, monkeypatch):
    """An interrupt that lands once the run is reaped finds no process
    group to signal: the interrupt itself goes on, not a lookup error."""
    perf_pairs = load_perf_pairs()
    checkout = tmp_path / "parent"
    (checkout / "perf").mkdir(parents=True)
    (checkout / "perf" / "run.py").write_text("print('{}')\n")

    class ReapedThenInterrupted(subprocess.Popen):
        def communicate(self, *args, **kwargs):
            super().communicate(*args, **kwargs)
            raise KeyboardInterrupt("SIGINT")

    monkeypatch.setattr(perf_pairs.subprocess, "Popen", ReapedThenInterrupted)
    with pytest.raises(KeyboardInterrupt):
        perf_pairs.run_once(checkout, "sim_query", 1, 1.0)
