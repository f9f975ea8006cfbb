"""The documentation's code must actually run.

Extracts fenced ``python`` blocks from README.md and executes the
self-contained ones; spot-checks that docs/ refer only to names that
exist.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def python_blocks(path: Path) -> list[str]:
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadmeSnippets:
    def test_quickstart_block_runs(self):
        blocks = python_blocks(ROOT / "README.md")
        assert blocks, "README lost its quickstart block"
        namespace: dict = {}
        exec(blocks[0], namespace)  # noqa: S102 - executing our own docs
        # The snippet built an index and ran queries; sanity-check it.
        assert "result" in namespace
        assert namespace["result"].records

    def test_install_commands_mentioned(self):
        text = (ROOT / "README.md").read_text()
        assert "pip install -e ." in text
        assert "pytest benchmarks/" in text
        assert "--benchmark-only" not in text


class TestUsageGuideNames:
    def test_referenced_symbols_exist(self):
        import repro
        from repro.core import aggregate
        from repro.dht import (
            chord, churn, kademlia, localhash, pastry, retry,
        )
        from repro.metrics import CostMeter

        assert CostMeter is not None
        text = (ROOT / "docs" / "usage.md").read_text()
        for name in ("MLightIndex", "Region", "bulk_load"):
            assert name in text
            assert hasattr(repro, name), name
        for module, name in (
            (localhash, "LocalDht"), (chord, "ChordDht"),
            (kademlia, "KademliaDht"), (pastry, "PastryDht"),
        ):
            assert name in text
            assert hasattr(module, name), name
        assert hasattr(aggregate, "count_in")
        assert hasattr(aggregate, "sum_in")
        assert hasattr(retry, "RetryingDht")
        assert hasattr(churn, "run_churn")


class TestArchitectureNames:
    """docs/architecture.md describes the design that exists: every
    dotted ``repro.*`` name resolves, every repo path is a file."""

    TEXT = (ROOT / "docs" / "architecture.md").read_text()

    def test_dotted_names_resolve(self):
        import importlib

        for dotted in set(re.findall(r"`(repro(?:\.\w+)+)", self.TEXT)):
            parts = dotted.split(".")
            for cut in range(len(parts), 0, -1):
                try:
                    target = importlib.import_module(".".join(parts[:cut]))
                except ImportError:
                    continue
                break
            for attribute in parts[cut:]:
                assert hasattr(target, attribute), dotted
                target = getattr(target, attribute)

    def test_paths_exist(self):
        paths = re.findall(
            r"`((?:tests|perf|benchmarks|results|tools|docs)/[\w./]+)",
            self.TEXT,
        )
        assert paths
        for path in paths:
            assert (ROOT / path.split(":")[0]).exists(), path

    def test_stays_a_design_not_a_history(self):
        assert len(self.TEXT.splitlines()) <= 400


class TestCrossReferences:
    def test_design_lists_every_experiment_bench(self):
        text = (ROOT / "DESIGN.md").read_text()
        for exp in ("E1", "E7", "A1", "A4", "E9", "E10", "E11"):
            assert f"| {exp} " in text, exp

    def test_experiments_has_verdict_per_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for figure in ("Fig. 5a/5b", "Fig. 5c/5d", "Fig. 6a/6b",
                       "Fig. 7a", "Fig. 7b"):
            assert figure in text, figure
        assert text.count("reproduced") >= 6
