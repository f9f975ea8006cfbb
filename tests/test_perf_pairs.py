"""The verdict rule of ``tools/perf_pairs.py``: ``judge`` decides whether
a change is a gain, no worse, worse or unresolved on one metric."""

from __future__ import annotations

import sys
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
