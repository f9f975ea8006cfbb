"""Tests for the experiment harness and figure runners (small scale).

Each runner is exercised end-to-end on a reduced dataset, asserting the
qualitative *shapes* the paper reports rather than absolute numbers.
"""

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import ReproError
from repro.datasets.northeast import northeast_surrogate
from repro.experiments import ablation, fig5, fig6, fig7
from repro.experiments.harness import (
    build_index,
    default_sample_points,
    progressive_insert,
)
from repro.experiments.tables import format_table, pivot, render


@pytest.fixture(scope="module")
def points():
    return northeast_surrogate(2500, seed=17)


@pytest.fixture(scope="module")
def config():
    return IndexConfig(
        dims=2, max_depth=20, split_threshold=25,
        merge_threshold=12, expected_load=18,
    )


class TestHarness:
    def test_build_index_schemes(self, config):
        for scheme in ("mlight", "mlight-da", "pht", "dst", "naive"):
            index = build_index(scheme, config, n_peers=8)
            index.insert((0.5, 0.5))
            assert index.total_records() == 1

    def test_unknown_scheme(self, config):
        with pytest.raises(ReproError):
            build_index("btree", config)

    def test_default_sample_points(self):
        assert default_sample_points(100, 4) == [25, 50, 75, 100]
        assert default_sample_points(3, 10) == [1, 2, 3]

    def test_progressive_insert_samples(self, config, points):
        index = build_index("mlight", config, n_peers=8)
        samples = progressive_insert(
            index, points[:300], sample_at=[100, 200, 300]
        )
        assert [s.inserted for s in samples] == [100, 200, 300]
        assert samples[0].lookups < samples[1].lookups < samples[2].lookups


class TestFig5:
    def test_datasize_sweep_shapes(self, points, config):
        series = fig5.run_datasize_sweep(points, config, samples=3)
        by_name = {entry.scheme: entry for entry in series}
        assert set(by_name) == {"mlight", "pht", "dst"}
        for entry in series:
            # Cumulative costs are monotone (Fig. 5a/5b curves rise).
            assert list(entry.lookups) == sorted(entry.lookups)
            assert list(entry.records_moved) == sorted(entry.records_moved)
        # m-LIGHT cheapest, DST most expensive (final sample).
        assert by_name["mlight"].lookups[-1] < by_name["pht"].lookups[-1]
        assert by_name["pht"].lookups[-1] < by_name["dst"].lookups[-1]
        assert (
            by_name["mlight"].records_moved[-1]
            < by_name["pht"].records_moved[-1]
            < by_name["dst"].records_moved[-1]
        )
        rendered = pivot(series, "data size")
        assert "mlight" in rendered and "DHT-lookup cost" in rendered
        assert rendered.splitlines()[1].split() == [
            "data", "size", "mlight", "pht", "dst",
        ]

    def test_threshold_sweep_shapes(self, points, config):
        series = fig5.run_threshold_sweep(
            points[:1200], config, thresholds=(25, 100),
            schemes=("mlight", "dst"),
        )
        by_name = {entry.scheme: entry for entry in series}
        # DST's movement falls when saturation (== theta) shrinks.
        dst = by_name["dst"]
        assert dst.records_moved[0] < dst.records_moved[-1]


class TestFig6:
    def test_loadbalance_shapes(self, points, config):
        series = fig6.run_loadbalance_experiment(
            points, config, n_samples=2, n_peers=32, virtual_nodes=32
        )
        by_name = {entry.strategy: entry for entry in series}
        assert set(by_name) == {"threshold", "data-aware"}
        threshold = by_name["threshold"].samples[-1]
        data_aware = by_name["data-aware"].samples[-1]
        # The headline Fig. 6b effect: fewer empty buckets.
        assert data_aware.empty_fraction <= threshold.empty_fraction
        rendered = render(by_name["threshold"].samples, "storage")
        assert "empty buckets" in rendered
        assert "max/mean" in render(series, "query load")


class TestFig7:
    def test_rangequery_shapes(self, points, config):
        series = fig7.run_rangequery_experiment(
            points, config, spans=(0.05, 0.3), queries_per_span=3
        )
        by_name = {entry.variant: entry for entry in series}
        assert set(by_name) == {
            "mlight-basic", "mlight-parallel-2", "mlight-parallel-4",
            "pht", "dst",
        }
        # Bandwidth: basic < parallel variants; dst worst of all.
        for position in range(2):
            basic = by_name["mlight-basic"].bandwidth[position]
            assert basic <= by_name["mlight-parallel-2"].bandwidth[position]
            assert basic < by_name["dst"].bandwidth[position]
            assert basic < by_name["pht"].bandwidth[position]
        # Latency: parallel-4 <= parallel-2 <= basic <= pht.
        for position in range(2):
            assert (
                by_name["mlight-parallel-4"].latency[position]
                <= by_name["mlight-parallel-2"].latency[position]
                <= by_name["mlight-basic"].latency[position]
            )
            assert (
                by_name["mlight-basic"].latency[position]
                <= by_name["pht"].latency[position]
            )
        rendered = pivot(series, "range span")
        assert "Bandwidth" in rendered and "Latency" in rendered


class TestAblations:
    def test_naming_ablation(self, points, config):
        rows = ablation.run_naming_ablation(points[:800], config)
        by_name = {row.name: row for row in rows}
        assert by_name["mlight"].lookups < by_name["naive-mapping"].lookups
        assert (
            by_name["mlight"].records_moved
            < by_name["naive-mapping"].records_moved
        )

    def test_lookup_ablation(self, points, config):
        keys = points[:50]
        rows = ablation.run_lookup_ablation(points[:800], keys, config)
        by_name = {row.name: row for row in rows}
        assert (
            by_name["binary-search"].lookups
            < by_name["linear-probing"].lookups
        )

    def test_substrate_ablation(self, points, config):
        rows = ablation.run_substrate_ablation(
            points[:300], config, n_peers=8
        )
        by_name = {row.name: row for row in rows}
        assert set(by_name) == {"local", "chord", "kademlia", "pastry"}
        # Index-level costs identical; only overlay hops differ.
        assert by_name["local"].lookups == by_name["chord"].lookups
        assert by_name["local"].lookups == by_name["kademlia"].lookups
        assert by_name["local"].lookups == by_name["pastry"].lookups
        assert by_name["local"].hops == 0
        assert by_name["chord"].hops > 0
        rendered = render(rows, "substrates")
        assert "chord" in rendered and "DHT-lookups" in rendered


class TestTables:
    def test_format_table(self):
        text = format_table(
            ["name", "value"], [["a", 1234], ["b", 0.5]], title="T"
        )
        assert "T" in text
        assert "1,234" in text

    def test_booleans_read_yes_and_no(self):
        text = format_table(["ok", "count"], [[True, 1], [False, 0]])
        assert text.splitlines()[2:] == ["yes      1", " no      0"]

    def test_no_line_ends_in_blanks(self):
        text = format_table(["a", "wide header"], [[1, 2]], title="T")
        assert all(line == line.rstrip() for line in text.splitlines())

    def test_render_defaults_to_one_column_per_field(self):
        from dataclasses import dataclass

        @dataclass
        class Sample:
            fault_rate: float
            recall: float

        text = render([Sample(0.1, 1.0)], "T")
        assert text.splitlines()[1] == "fault rate  recall"
