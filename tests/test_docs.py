"""The documentation's code must actually run.

Extracts fenced ``python`` blocks from README.md and executes the
self-contained ones; spot-checks that docs/ refer only to names that
exist.
"""

import re
from pathlib import Path

import pytest

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
        from repro.obs.registry import MetricsRegistry

        text = (ROOT / "docs" / "usage.md").read_text()
        assert "MetricsRegistry.for_index" in text
        assert hasattr(MetricsRegistry, "for_index")
        assert hasattr(MetricsRegistry, "delta")
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

    def test_names_the_maintenance_kernel(self):
        from repro.core import naming

        for name in ("split_homes", "merge_homes", "SplitHomes", "MergeHomes"):
            assert f"`{name}" in self.TEXT, name
            assert hasattr(naming, name), name


class TestRemovedNames:
    """Deleted names stay out of the guides and the README."""

    REMOVED = (
        "CostMeter", "CostDelta", "default_lookahead", "range_query_scan",
        "`get_many`", "`lookup_many`", "get_many(", "lookup_many(",
        "local_tree_ancestors", "min_label_length",
        # the client-resolved peer runtime and what only it used
        "DistributedQueryRuntime", "core.distributed", "refresh_agents",
        "lookup_many_outcomes", "_do_lookup_many", "`Forward`",
        "Forward(", "AGENT_SUFFIX", "RECORD_WIRE_BYTES",
        "frame_wire_cost",
        # the open kind registries and the one-subclass bases
        "register_runtime", "register_store", "register_store_backend",
        "store_backend_kinds", "runtime_kinds", "store_backends",
        "create_store_backend", "RecordStore", "DurableBackend",
        "common.registry",
        # the install hooks and the record sniffing of the byte model,
        # which lives in repro.net.message now
        "install_wire_model", "install_reply_cost_model", "_wire_model",
        "_reply_cost_model", "estimate_wire_size", "data_wire_size",
        "request_wire_size", "reply_wire_size", "payload_wire_size",
        "_row_bytes", "_record_like", "_record_list_size", "_FIXED_BYTES",
        "api.ENVELOPE_WIRE_BYTES", "api.MESSAGE_HEADER_BYTES",
        # the per-level range geometry the closed-form kernels replaced,
        # kept as test oracles in tests/conftest.py
        "cell_resolves_query", "branch_nodes_between",
        # the per-opcode primitives one exchange per substrate replaced
        "_do_get", "_do_put", "_do_remove", "_do_rewrite", "_do_lookup",
        "_do_restart", "perform_on_loop's", "rpc_store_",
        # the adaptive plane's copy of the leaf cache's table, and the
        # private registry its detector read its counts through
        "ShortcutTable", "DEFAULT_SHORTCUT_CAPACITY", "adaptive.shortcuts",
        "BucketReadCounters", "READS_SOURCE",
        # the stream decoder's frame cutter and the two-message booking
        # the exchange's one NetworkStats update replaced
        "frame_at", "record_exchange",
    )

    @pytest.mark.parametrize(
        "path", ["README.md", "docs/usage.md", "docs/architecture.md",
                 "docs/algorithms.md", "DESIGN.md"],
    )
    def test_guides_do_not_mention_them(self, path):
        text = (ROOT / path).read_text()
        found = [name for name in self.REMOVED if name in text]
        assert not found, found

    def test_the_config_has_no_default_lookahead(self):
        from dataclasses import fields

        from repro.common.config import IndexConfig

        names = [spec.name for spec in fields(IndexConfig)]
        assert "default_lookahead" not in names
        assert len(names) == 12  # ``runtime`` stays: perf/floor.py sets it


class TestCrossReferences:
    def test_design_lists_every_experiment_bench(self):
        """DESIGN.md section 4 has a row per catalogue entry: ``| A1 |``,
        ``| E13 |``, and one per panel of a figure (``fig5ab`` is the
        rows ``Fig 5a`` and ``Fig 5b``)."""
        from repro.experiments.catalogue import CATALOGUE

        text = (ROOT / "DESIGN.md").read_text()
        for entry in CATALOGUE:
            if entry.key.startswith("fig"):
                number, panels = entry.key[3], entry.key[4:]
                rows = [f"| Fig {number}{panel} |" for panel in panels]
            else:
                rows = [f"| {entry.key.upper()} |"]
            for row in rows:
                assert row in text, row

    def test_experiments_has_verdict_per_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for figure in ("Fig. 5a/5b", "Fig. 5c/5d", "Fig. 6a/6b",
                       "Fig. 7a", "Fig. 7b"):
            assert figure in text, figure
        assert text.count("reproduced") >= 6


class TestResultStamps:
    """Every table under results/ says what produced it."""

    #: Tables that predate the stamp line (none of the catalogue's).
    PREDATING = {
        "trace_timeline.txt":
            "written by experiments/trace_report.py, not a count table",
    }

    STAMP = re.compile(r"# scale=(\d+) seed=(\d+) commit=(\w+)")

    def stamps(self):
        found = {}
        for path in sorted((ROOT / "results").glob("*.txt")):
            first = path.read_text().split("\n", 1)[0]
            match = self.STAMP.fullmatch(first)
            if match:
                found[path.name] = (int(match[1]), int(match[2]))
            else:
                assert path.name in self.PREDATING, (
                    f"{path.name} carries no stamp line and is not "
                    "listed as predating it"
                )
        return found

    #: Stamped, but at its own scale by design: the ``run_all --full``
    #: transcript.
    PAPER_SCALE = "full_run_paper_scale.txt"

    def test_stamped_tables_agree_on_scale_and_seed(self):
        found = self.stamps()
        assert not set(self.PREDATING) & set(found)
        paper_scale = found.pop(self.PAPER_SCALE, None)
        assert len(set(found.values())) == 1, found
        if paper_scale is not None:
            from repro.datasets.northeast import NE_CARDINALITY

            (reduced,) = set(found.values())
            assert paper_scale == (NE_CARDINALITY, reduced[1])

    def test_every_catalogue_table_is_committed(self):
        from repro.experiments.catalogue import CATALOGUE

        found = self.stamps()
        for entry in CATALOGUE:
            assert entry.file in found, entry.file
