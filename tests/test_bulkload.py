"""Tests for bulk loading (the static Theorem-6 construction)."""

import random
from array import array

import pytest

from repro.common.config import IndexConfig
from repro.common.errors import InvalidPointError, ReproError
from repro.common.geometry import Region
from repro.core.bulkload import bulk_load, coerce_bulk_items, plan_bulk_tree
from repro.core.index import MLightIndex
from repro.core.records import Record
from repro.core.split import DataAwareSplit, ThresholdSplit
from repro.core.store import Rows
from repro.dht.localhash import LocalDht
from tests.conftest import brute_force_range


def small_config(**overrides):
    defaults = dict(
        dims=2, max_depth=16, split_threshold=8,
        merge_threshold=4, expected_load=6,
    )
    defaults.update(overrides)
    return IndexConfig(**defaults)


class TestPlan:
    def test_small_dataset_single_bucket(self):
        config = small_config()
        records = [Record((0.1, 0.1)), Record((0.9, 0.9))]
        leaves = plan_bulk_tree(
            records, config, ThresholdSplit(8, 4)
        )
        assert leaves == [("001", records)]

    def test_leaves_tile_the_space(self):
        rng = random.Random(0)
        config = small_config()
        records = [
            Record((rng.random(), rng.random())) for _ in range(300)
        ]
        leaves = plan_bulk_tree(records, config, ThresholdSplit(8, 4))
        labels = [label for label, _ in leaves]
        for a in labels:
            for b in labels:
                if a != b:
                    assert not b.startswith(a)
        total = sum(2.0 ** -(len(label) - 3) for label in labels)
        assert total == pytest.approx(1.0)
        assert sum(len(recs) for _, recs in leaves) == 300


class TestBulkLoad:
    def test_loaded_index_is_queryable_and_consistent(self):
        rng = random.Random(1)
        config = small_config()
        points = [(rng.random(), rng.random()) for _ in range(400)]
        dht = LocalDht(16)
        placed = bulk_load(dht, points, config)
        assert sum(load for _, load in placed) == 400
        index = MLightIndex(dht, config)
        index.check_invariants()
        query = Region((0.2, 0.2), (0.7, 0.7))
        got = sorted(r.key for r in index.range_query(query).records)
        assert got == brute_force_range(points, query)

    def test_incremental_ops_continue_after_bulk_load(self):
        rng = random.Random(2)
        config = small_config()
        points = [(rng.random(), rng.random()) for _ in range(200)]
        dht = LocalDht(16)
        bulk_load(dht, points, config)
        index = MLightIndex(dht, config)
        index.insert((0.123, 0.456), "new")
        assert index.delete(points[0])
        index.check_invariants()
        assert index.total_records() == 200

    def test_accepts_records_and_pairs(self):
        config = small_config()
        dht = LocalDht(8)
        bulk_load(
            dht,
            [Record((0.1, 0.1), "r"), ((0.2, 0.2), "p"), (0.3, 0.3)],
            config,
        )
        index = MLightIndex(dht, config)
        assert index.total_records() == 3

    def test_refuses_existing_tree(self):
        config = small_config()
        dht = LocalDht(8)
        MLightIndex(dht, config)  # bootstraps a root bucket
        with pytest.raises(ReproError):
            bulk_load(dht, [(0.1, 0.1)], config)

    def test_config_strategy_reaches_the_bulk_tree(self):
        """``config.strategy`` selects the planner here as it does in
        ``MLightIndex``: the tree equals the one an explicitly passed
        strategy builds, and differs from the threshold tree."""
        rng = random.Random(3)
        points = [(rng.random(), rng.random()) for _ in range(400)]
        config = small_config(strategy="data-aware")
        by_config = bulk_load(LocalDht(8), points, config)
        explicit = bulk_load(
            LocalDht(8), points, config,
            DataAwareSplit(config.expected_load),
        )
        threshold = bulk_load(LocalDht(8), points, small_config())
        assert by_config == explicit
        assert by_config != threshold


class TestInputValidation:
    """Every input form is checked, NaN included, before anything is
    placed: a coordinate no query can return never reaches a bucket."""

    def assert_refused(self, items, config=None):
        dht = LocalDht(8)
        with pytest.raises(InvalidPointError):
            bulk_load(dht, items, config or small_config())
        assert not list(dht.items())

    def test_point_list_with_nan_or_out_of_range(self):
        self.assert_refused([(0.1, 0.2), (float("nan"), 0.5), (0.3, 0.4)])
        self.assert_refused([(0.1, 0.2), (0.3, 1.0)])

    def test_point_list_keeps_the_per_point_message(self):
        with pytest.raises(InvalidPointError, match=r"coordinate 1\.5 outside"):
            bulk_load(LocalDht(8), [(0.1, 0.2), (0.3, 1.5)], small_config())
        with pytest.raises(InvalidPointError, match="expected 2 coordinates"):
            bulk_load(LocalDht(8), [(0.1, 0.2), (0.3,)], small_config())

    @pytest.mark.parametrize("bad", [1.5, float("nan"), -0.25])
    def test_rows_block(self, bad):
        columns = [array("d", [0.1, bad, 0.3]), array("d", [0.2, 0.5, 0.4])]
        self.assert_refused(Rows(2, columns, None))

    @pytest.mark.parametrize("bad", [1.5, float("nan")])
    def test_numpy_matrix(self, bad):
        np = pytest.importorskip("numpy")
        self.assert_refused(np.array([[0.1, 0.2], [bad, 0.5], [0.3, 0.4]]))

    def test_bare_tuples_become_the_records_coerce_builds(self):
        rng = random.Random(5)
        points = [(rng.random(), rng.random()) for _ in range(200)]
        points.append((0, 0.5))  # an int coordinate is kept as given
        config = small_config()
        assert coerce_bulk_items(points, 2) == [
            Record.coerce(point, dims=2) for point in points
        ]
        placed = bulk_load(LocalDht(8), points, config)
        assert placed == bulk_load(
            LocalDht(8), [Record(point) for point in points], config
        )

    def test_mixed_spellings_still_go_item_by_item(self):
        items = [(0.1, 0.1), ((0.2, 0.2), "p"), Record((0.3, 0.3), "r")]
        assert coerce_bulk_items(items, 2) == [
            Record((0.1, 0.1)), Record((0.2, 0.2), "p"), Record((0.3, 0.3), "r")
        ]


class TestStaticBeatsIncremental:
    """Ablation A4's claim, as a test: bulk loading costs less and the
    static data-aware tree balances at least as well."""

    def test_bulk_maintenance_floor(self):
        rng = random.Random(3)
        config = small_config()
        points = [(rng.random(), rng.random()) for _ in range(500)]

        bulk_dht = LocalDht(16)
        placed = bulk_load(bulk_dht, points, config)
        incr = MLightIndex(LocalDht(16), config)
        for point in points:
            incr.insert(point)

        assert bulk_dht.stats.lookups == len(placed)
        assert bulk_dht.stats.lookups < incr.dht.stats.lookups
        assert bulk_dht.stats.records_moved <= incr.dht.stats.records_moved

    def test_static_data_aware_variance(self):
        rng = random.Random(4)
        config = small_config()
        # Clustered data: the regime where incremental early splits
        # commit to bad partitions.
        points = []
        for _ in range(600):
            cx, cy = rng.choice([(0.2, 0.2), (0.8, 0.3), (0.5, 0.8)])
            points.append(
                (
                    min(0.999, max(0.0, rng.gauss(cx, 0.05))),
                    min(0.999, max(0.0, rng.gauss(cy, 0.05))),
                )
            )
        strategy = DataAwareSplit(config.expected_load)

        bulk_dht = LocalDht(16)
        bulk_load(bulk_dht, points, config, strategy)
        static_loads = [
            value.load for key, value in bulk_dht.items()
            if key.startswith("ml:")
        ]

        incr = MLightIndex(
            LocalDht(16), small_config(strategy="data-aware")
        )
        for point in points:
            incr.insert(point)
        incremental_loads = [bucket.load for bucket in incr.buckets()]

        epsilon = config.expected_load
        static_cost = sum((x - epsilon) ** 2 for x in static_loads)
        incremental_cost = sum(
            (x - epsilon) ** 2 for x in incremental_loads
        )
        assert static_cost <= incremental_cost
