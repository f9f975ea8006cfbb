"""End-to-end tests of the run_all CLI and the catalogue behind it, at
miniature scale.

The CLI runs twice, in subprocesses under ``PYTHONHASHSEED`` 0 and 2:
every table it writes must be the same bytes both times, and must be
the catalogue's rendering of that entry under the stamp line.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.datasets.northeast import northeast_surrogate
from repro.experiments.catalogue import BY_KEY, CATALOGUE, run, table

SIZE = 400
QUERIES = 1


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """hash seed -> (exit code, stdout, --out directory)."""
    runs = {}
    for hash_seed in (0, 2):
        out_dir = tmp_path_factory.mktemp(f"tables{hash_seed}")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.run_all",
                "--size", str(SIZE), "--queries", str(QUERIES),
                "--charts", "--out", str(out_dir),
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        )
        assert result.returncode == 0, result.stderr
        runs[hash_seed] = (result.returncode, result.stdout, out_dir)
    return runs


@pytest.fixture(scope="module")
def cli_output(cli_runs):
    return cli_runs[0]


@pytest.fixture(scope="module")
def points():
    return northeast_surrogate(SIZE)


@pytest.fixture(scope="module")
def results(points):
    """Every entry run in this process, as the CLI binds it."""
    return {
        entry.key: run(entry, points, 0, queries_per_span=QUERIES)
        for entry in CATALOGUE
    }


class TestRunAll:
    def test_exit_code(self, cli_output):
        code, _, _ = cli_output
        assert code == 0

    def test_every_section_present(self, cli_output):
        _, out, _ = cli_output
        for token in (
            "Figs. 5a/5b", "Figs. 5c/5d", "Figs. 6a/6b", "Figs. 7a/7b",
            "A1:", "A2:", "A3:", "A4:", "A5:", "E9:", "E10:", "E11:",
            "E12:", "E13:", "E14:", "E15:",
        ):
            assert f"=== {token}" in out, token
        assert out.startswith(f"# scale={SIZE} seed=0 commit=")
        assert "done in" in out

    def test_charts_rendered(self, cli_output):
        _, out, _ = cli_output
        assert "log10" in out  # maintenance charts are log-scale
        assert "mlight-basic" in out

    def test_out_files_written(self, cli_output):
        _, _, out_dir = cli_output
        names = {path.name for path in out_dir.iterdir()}
        assert names == {entry.file for entry in CATALOGUE}

    def test_each_file_is_the_catalogue_rendering_under_a_stamp(
        self, cli_output, results
    ):
        _, out, out_dir = cli_output
        for entry in CATALOGUE:
            stamp, _, body = (
                (out_dir / entry.file).read_text().partition("\n")
            )
            assert re.fullmatch(
                rf"# scale={SIZE} seed=0 commit=\w+", stamp
            ), entry.key
            rendered = table(entry, results[entry.key])
            assert body == rendered + "\n", entry.key
            assert rendered in out, entry.key

    def test_tables_do_not_depend_on_the_hash_seed(self, cli_runs):
        (_, _, first), (_, _, second) = cli_runs[0], cli_runs[2]
        for entry in CATALOGUE:
            assert (first / entry.file).read_bytes() == (
                second / entry.file
            ).read_bytes(), entry.key

    def test_no_table_line_ends_in_blanks_or_prints_a_bool_as_int(
        self, cli_output
    ):
        _, _, out_dir = cli_output
        for path in out_dir.iterdir():
            for line in path.read_text().splitlines():
                assert line == line.rstrip(), path.name
        e15 = (out_dir / BY_KEY["e15"].file).read_text()
        assert e15.count("yes") == 4  # three overlays + exactly-once


def test_the_seed_reaches_every_entry_that_draws_a_workload(
    points, results
):
    """``--seed`` used to stop at Fig. 7, A2/A5 and E11-E15; ``run``
    threads it to every seeded entry, so a second seed moves each of
    their tables (and cannot move the others, which never see it)."""
    seeded = [entry for entry in CATALOGUE if entry.seeded]
    assert {entry.key for entry in CATALOGUE} - {
        entry.key for entry in seeded
    } == {"fig5ab", "fig5cd", "a1", "a3", "a4"}
    for entry in seeded:
        reseeded = run(entry, points, 5, queries_per_span=QUERIES)
        assert table(entry, reseeded) != table(
            entry, results[entry.key]
        ), entry.key


class TestMiniatureEntries:
    """E12, E14 and E15 keep their claims at 400 points."""

    def test_e12_zero_rate_cells_inject_nothing(self, results):
        cells = {
            (cell.replication, cell.fault_rate): cell
            for cell in results["e12"]
        }
        assert len(cells) == 12
        for replication in (2, 3):
            clean = cells[(replication, 0.0)]
            assert clean.recall == 1.0
            assert clean.faults_injected == clean.retries == 0
        for replication in (1, 2, 3):
            assert cells[(replication, 0.3)].faults_injected > 0
            assert cells[(replication, 0.3)].backoff_time > 0

    def test_e14_durable_restart_recovers_what_the_crash_lost(
        self, results
    ):
        for cell in results["e14"]:
            assert cell.recall_down < 1.0
            if cell.durability == "none":
                assert cell.replayed == 0
                assert cell.recall_after < 1.0
            else:
                assert cell.replayed > 0
                assert cell.recall_after == 1.0

    def test_e15_multicast_sends_one_initiator_message_per_query(
        self, results
    ):
        mcast, (continuous,) = results["e15"]
        assert [sample.overlay for sample in mcast] == [
            "chord", "kademlia", "pastry",
        ]
        for sample in mcast:
            assert sample.mcast_initiator_msgs == sample.queries
            assert sample.fanout_initiator_msgs > sample.queries
            assert sample.answers_equal
            assert sample.lookups_mcast == sample.lookups_fanout
        assert continuous.exactly_once
