"""Targeted validation tests for IndexConfig's numeric fields.

Misconfiguration should fail at construction with a message naming the
field, the constraint, and the offending value — not surface later as
a silent behaviour change deep inside an experiment.
"""

import random
from dataclasses import fields

import pytest

from repro.adaptive.config import AdaptiveConfig
from repro.common.config import IndexConfig
from repro.common.labels import MAX_RESOLUTION_BITS
from repro.common.errors import ReproError, UnknownRuntimeError
from repro.core.index import MLightIndex
from repro.dht.localhash import LocalDht


class TestCacheCapacity:
    def test_negative_rejected_with_message(self):
        with pytest.raises(
            ReproError, match=r"cache_capacity must be >= 0.*got -1"
        ):
            IndexConfig(cache_capacity=-1)

    def test_zero_disables_the_cache(self):
        index = MLightIndex(LocalDht(8), IndexConfig(cache_capacity=0))
        assert index.cache is None

    def test_positive_builds_a_cache(self):
        index = MLightIndex(LocalDht(8), IndexConfig(cache_capacity=16))
        assert index.cache is not None


class TestDefaultLookahead:
    """The lookahead is not configuration: a query that passes none
    runs the basic algorithm (``h = 1``), and one that passes its own
    is validated where it is passed."""

    QUERY = ((0.05, 0.05), (0.9, 0.9))

    @staticmethod
    def loaded_index():
        rng = random.Random(2)
        config = IndexConfig(
            dims=2, max_depth=12, split_threshold=10, merge_threshold=5
        )
        index = MLightIndex(LocalDht(8), config)
        index.insert_many(
            (rng.random(), rng.random()) for _ in range(300)
        )
        return index

    @pytest.mark.parametrize("bad", [0, -1, -4, 3, 6, 12, 100])
    def test_non_powers_of_two_rejected(self, bad):
        index = MLightIndex(LocalDht(8), IndexConfig())
        with pytest.raises(
            ReproError, match=r"lookahead must be a power of two"
        ):
            index.range_query(self.QUERY, lookahead=bad)

    def test_message_names_the_offending_value(self):
        index = MLightIndex(LocalDht(8), IndexConfig())
        with pytest.raises(ReproError, match=r"got 3"):
            index.range_query(self.QUERY, lookahead=3)

    @pytest.mark.parametrize("good", [1, 2, 4, 8, 16])
    def test_powers_of_two_accepted(self, good):
        index = self.loaded_index()
        basic = index.range_query(self.QUERY, lookahead=1)
        widened = index.range_query(self.QUERY, lookahead=good)
        assert sorted(r.key for r in widened.records) == sorted(
            r.key for r in basic.records
        )

    def test_range_query_uses_the_configured_default(self):
        """``range_query`` with no explicit lookahead is the basic
        walk; the wider speculative frontier spends more lookups on the
        same query.  There is no config field to set it by."""
        index = self.loaded_index()
        defaulted = index.range_query(self.QUERY)
        explicit = index.range_query(self.QUERY, lookahead=1)
        assert defaulted.lookups == explicit.lookups
        assert defaulted.rounds == explicit.rounds
        widened = index.range_query(self.QUERY, lookahead=4)
        assert widened.lookups > defaulted.lookups
        with pytest.raises(TypeError):
            IndexConfig(default_lookahead=4)


class TestMaxDepth:
    """A label bit is a coordinate bit: ``max_depth`` cannot exceed
    the ``MAX_RESOLUTION_BITS`` bits each of the ``dims`` coordinates
    carries, or every insert and lookup would fail deep inside the
    label code instead of at construction."""

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_above_the_resolution_rejected_naming_the_bound(self, dims):
        bound = MAX_RESOLUTION_BITS * dims
        with pytest.raises(
            ReproError, match=rf"max_depth must be <= {bound}.*got {bound + 1}"
        ):
            IndexConfig(dims=dims, max_depth=bound + 1)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_the_bound_itself_indexes(self, dims):
        depth = MAX_RESOLUTION_BITS * dims
        index = MLightIndex(
            LocalDht(4), IndexConfig(dims=dims, max_depth=depth)
        )
        point = (0.5,) * dims
        index.insert(point)
        assert [record.key for record in index.exact_match(point)] == [point]


class TestRuntime:
    def test_unknown_kind_raises_value_error(self):
        """The contract is plain ``ValueError`` compatibility: callers
        guarding with ``except ValueError`` must catch it."""
        with pytest.raises(ValueError, match=r"unknown runtime 'threads'"):
            IndexConfig(runtime="threads")

    def test_unknown_kind_is_the_library_error(self):
        with pytest.raises(UnknownRuntimeError, match=r"sim.*asyncio.*tcp"):
            IndexConfig(runtime="gevent")

    @pytest.mark.parametrize("kind", ["sim", "asyncio", "tcp"])
    def test_known_kinds_accepted(self, kind):
        assert IndexConfig(runtime=kind).runtime == kind

    def test_default_is_the_simulated_plane(self):
        assert IndexConfig().runtime == "sim"


#: Configs whose ``repr`` the tests below read: both config classes,
#: and one nested in the other.
REPR_CONFIGS = {
    "index": IndexConfig(dims=3, runtime="asyncio", tracing=True),
    "thresholds": IndexConfig(split_threshold=40, merge_threshold=20),
    "adaptive": AdaptiveConfig(hot_share=0.25, shortcut_capacity=0),
    "nested": IndexConfig(adaptive=AdaptiveConfig(max_replicas=1, seed=3)),
}


class TestRepr:
    @pytest.mark.parametrize(
        "config", REPR_CONFIGS.values(), ids=REPR_CONFIGS.keys()
    )
    def test_repr_lists_every_field(self, config):
        """``repr`` is the one authoritative listing of the config
        surface: every declared field must appear with its value, so a
        field added later can never be invisible in logs."""
        text = repr(config)
        assert text.startswith(f"{type(config).__name__}(")
        for spec in fields(config):
            assert f"{spec.name}={getattr(config, spec.name)!r}" in text

    @pytest.mark.parametrize(
        "config", REPR_CONFIGS.values(), ids=REPR_CONFIGS.keys()
    )
    def test_repr_round_trips_through_eval(self, config):
        assert eval(repr(config)) == config  # noqa: S307
