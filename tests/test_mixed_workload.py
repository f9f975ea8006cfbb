"""Tests for the E11 mixed insert/delete experiment."""

import pytest

from repro.common.config import IndexConfig
from repro.datasets.northeast import northeast_surrogate
from repro.experiments.mixed_workload import run_mixed_workload
from repro.experiments.tables import render


@pytest.fixture(scope="module")
def samples():
    config = IndexConfig(
        dims=2, max_depth=20, split_threshold=20,
        merge_threshold=10, expected_load=14,
    )
    points = northeast_surrogate(2000, seed=31)
    return run_mixed_workload(points, config, delete_fraction=0.4)


class TestMixedWorkload:
    def test_all_schemes_present(self, samples):
        assert [s.scheme for s in samples] == ["mlight", "pht", "dst"]

    def test_same_trace_for_all(self, samples):
        inserts = {s.inserts for s in samples}
        deletes = {s.deletes for s in samples}
        assert len(inserts) == 1 and len(deletes) == 1
        leftovers = {s.final_records for s in samples}
        assert len(leftovers) == 1  # identical surviving record sets
        sample = samples[0]
        assert sample.final_records == sample.inserts - sample.deletes

    def test_mlight_cheapest_with_deletes(self, samples):
        by_name = {s.scheme: s for s in samples}
        assert by_name["mlight"].lookups < by_name["pht"].lookups
        assert (
            by_name["mlight"].records_moved
            < by_name["pht"].records_moved
        )
        assert by_name["dst"].lookups > by_name["pht"].lookups

    def test_render(self, samples):
        text = render(samples)
        assert "deletes" in text and "mlight" in text


class TestPackageMain:
    def test_usage_banner(self, capsys):
        from repro.__main__ import main

        assert main() == 0
        out = capsys.readouterr().out
        assert "run_all" in out and "quickstart" in out
