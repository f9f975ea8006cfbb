"""Tests for the unified result/config API.

Frozen result dataclasses built in one place, ``Record.coerce`` as the
single normalisation rule for bulk entry points, region coercion at the
query entry points, and config-driven split-strategy selection.
"""

import dataclasses
import random

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import InvalidRegionError, ReproError
from repro.common.geometry import Region, as_region
from repro.core.bucket import LeafBucket
from repro.core.index import MLightIndex, build_strategy
from repro.core.records import Record
from repro.core.results import (
    KnnResult,
    LookupResult,
    Neighbor,
    RangeQueryBuilder,
    RangeQueryResult,
)
from repro.core.split import DataAwareSplit, ThresholdSplit
from repro.dht.localhash import LocalDht


def make_index(**overrides):
    defaults = dict(
        dims=2, max_depth=16, split_threshold=8, merge_threshold=4
    )
    defaults.update(overrides)
    return MLightIndex(LocalDht(16), IndexConfig(**defaults))


class TestFrozenResults:
    def test_lookup_result_is_frozen(self):
        result = LookupResult(LeafBucket("001", 2), 3, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.lookups = 99

    def test_range_result_is_frozen(self):
        result = RangeQueryResult()
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.rounds = 99

    def test_knn_result_is_frozen(self):
        result = KnnResult((), 0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.neighbors = ()
        neighbor = Neighbor(Record.make((0.1, 0.2)), 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            neighbor.distance = 0.0

    def test_results_share_cost_field_names(self):
        for cls in (LookupResult, RangeQueryResult, KnnResult):
            fields = {field.name for field in dataclasses.fields(cls)}
            assert {"lookups", "rounds"} <= fields

    def test_builder_is_the_construction_site(self):
        builder = RangeQueryBuilder()
        builder.lookups = 4
        builder.rounds = 2
        assert builder.collect("0010", [Record.make((0.1, 0.1))])
        assert not builder.collect("0010", [])  # revisit: deduplicated
        result = builder.build()
        assert isinstance(result, RangeQueryResult)
        assert result.lookups == 4 and result.rounds == 2
        assert result.visited_leaves == frozenset({"0010"})
        assert len(result.records) == 1

    def test_live_query_returns_frozen_result(self):
        index = make_index()
        rng = random.Random(0)
        for _ in range(50):
            index.insert((rng.random(), rng.random()))
        result = index.range_query(Region((0.0, 0.0), (0.5, 0.5)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.records = ()


class TestRegionCoercion:
    def test_range_query_accepts_plain_tuple(self):
        index = make_index()
        rng = random.Random(1)
        for _ in range(80):
            index.insert((rng.random(), rng.random()))
        region = Region((0.2, 0.2), (0.7, 0.7))
        via_region = index.range_query(region)
        via_tuple = index.range_query(((0.2, 0.2), (0.7, 0.7)))
        assert sorted(r.key for r in via_region.records) == sorted(
            r.key for r in via_tuple.records
        )

    def test_as_region_passthrough(self):
        region = Region((0.1, 0.1), (0.9, 0.9))
        assert as_region(region) is region

    def test_as_region_accepts_lists(self):
        region = as_region(([0.1, 0.2], [0.3, 0.4]))
        assert region == Region((0.1, 0.2), (0.3, 0.4))

    def test_as_region_rejects_junk(self):
        with pytest.raises(InvalidRegionError):
            as_region("not a region")
        with pytest.raises(InvalidRegionError):
            as_region((0.1, 0.2))  # a point, not a (lows, highs) pair


class TestRecordCoercion:
    def test_record_passthrough(self):
        record = Record.make((0.1, 0.2), "x")
        coerced = Record.coerce(record, dims=2)
        assert coerced.key == (0.1, 0.2) and coerced.value == "x"

    def test_pair_form(self):
        coerced = Record.coerce(((0.1, 0.2), "payload"), dims=2)
        assert coerced.key == (0.1, 0.2) and coerced.value == "payload"

    def test_bare_key_form(self):
        coerced = Record.coerce([0.1, 0.2], dims=2)
        assert coerced.key == (0.1, 0.2) and coerced.value is None

    def test_junk_raises_type_error(self):
        with pytest.raises(TypeError):
            Record.coerce(42)
        with pytest.raises(TypeError):
            Record.coerce("0.1,0.2")

    def test_insert_many_accepts_all_spellings(self):
        index = make_index()
        count = index.insert_many([
            Record.make((0.1, 0.1), "a"),
            ((0.2, 0.2), "b"),
            (0.3, 0.3),
        ])
        assert count == 3
        assert index.total_records() == 3
        assert index.exact_match((0.2, 0.2))[0].value == "b"


class TestConfigStrategy:
    def test_default_is_threshold(self):
        config = IndexConfig(dims=2)
        assert isinstance(build_strategy(config), ThresholdSplit)
        assert isinstance(
            MLightIndex(LocalDht(8), config).strategy, ThresholdSplit
        )

    def test_data_aware_selected_by_config(self):
        config = IndexConfig(dims=2, strategy="data-aware")
        index = MLightIndex(LocalDht(8), config)
        assert isinstance(index.strategy, DataAwareSplit)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ReproError):
            IndexConfig(dims=2, strategy="psychic")

    def test_negative_cache_capacity_rejected(self):
        with pytest.raises(ReproError):
            IndexConfig(dims=2, cache_capacity=-1)

    def test_explicit_strategy_instance_still_wins(self):
        strategy = DataAwareSplit(32)
        index = MLightIndex(LocalDht(8), IndexConfig(dims=2), strategy)
        assert index.strategy is strategy

    def test_cache_disabled_by_default(self):
        index = make_index()
        assert index.cache is None

    def test_cache_built_from_config(self):
        index = make_index(cache_capacity=32)
        assert index.cache is not None
        assert index.cache.capacity == 32


class TestStatsSurface:
    def test_snapshot_carries_cache_counters(self):
        dht = LocalDht(8)
        snapshot = dht.stats.snapshot()
        for key in ("cache_hits", "cache_stale", "cache_misses"):
            assert key in snapshot and snapshot[key] == 0

    def test_reset_zeroes_cache_counters(self):
        dht = LocalDht(8)
        dht.stats.cache_hits = 5
        dht.stats.cache_stale = 2
        dht.stats.cache_misses = 7
        dht.stats.reset()
        assert dht.stats.snapshot()["cache_hits"] == 0
        assert dht.stats.snapshot()["cache_stale"] == 0
        assert dht.stats.snapshot()["cache_misses"] == 0


class TestPackageVersion:
    def test_one_source(self):
        """``pyproject.toml`` declares no version of its own: the build
        reads ``repro.__version__``."""
        import re
        from pathlib import Path

        import repro

        text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        assert not re.search(r'^version\s*=\s*"', text, re.MULTILINE)
        assert 'dynamic = ["version"]' in text
        assert 'version = { attr = "repro.__version__" }' in text
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
