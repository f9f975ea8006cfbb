"""Every example script must run clean end-to-end.

The store-aware examples (quickstart, spatial POI search) run once per
record-store backend via the ``REPRO_STORE`` environment variable and
must print the same answers regardless of backend.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

STORE_BACKENDS = ("columnar", "numpy")


def run_example(name: str, *args: str, store: str | None = None) -> str:
    env = dict(os.environ)
    if store is not None:
        env["REPRO_STORE"] = store
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    @pytest.mark.parametrize("store", STORE_BACKENDS)
    def test_quickstart(self, store):
        out = run_example("quickstart.py", store=store)
        assert "Song A" in out
        assert "Song C" in out
        assert "Song E" not in out.split("matched:")[1].split("parallel")[0]

    @pytest.mark.parametrize("store", STORE_BACKENDS)
    def test_spatial_poi_search(self, store):
        out = run_example("spatial_poi_search.py", "3000", store=store)
        assert "[threshold]" in out and "[data-aware]" in out
        assert "downtown NYC" in out
        # The Atlantic rectangle is empty in the surrogate.
        for line in out.splitlines():
            if "Atlantic" in line:
                assert line.split()[3] == "0"

    def test_quickstart_answers_identical_across_backends(self):
        outputs = {
            store: run_example("quickstart.py", store=store)
            for store in STORE_BACKENDS
        }
        assert len(set(outputs.values())) == 1, outputs

    def test_multi_attribute_search(self):
        out = run_example("multi_attribute_search.py")
        assert "rated>4 published 2007-2008" in out
        assert "dance hits" in out

    def test_nearest_neighbors(self):
        out = run_example("nearest_neighbors.py", "5000")
        assert "5 nearest to the Manhattan pin" in out
        assert out.count("distance") >= 15

    def test_churn_resilience(self):
        out = run_example("churn_resilience.py")
        assert "crashes" in out
        assert "replica copies repaired" in out
        assert "survival 100.0%" in out
        assert "identical across churn" in out

    def test_distributed_deployment(self):
        out = run_example("distributed_deployment.py")
        assert "identical answers and identical metered costs" in out
        assert out.count("DHT-lookups") >= 3

    def test_service_plane(self):
        out = run_example("service_plane.py")
        assert "identical across runtimes" in out
        assert "achieved QPS" in out
        assert "p99 latency (ms)" in out
