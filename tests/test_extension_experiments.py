"""Tests for the extension experiments E9 (dimensionality) and E10
(churn availability)."""

import pytest

from repro.common.config import IndexConfig
from repro.datasets.northeast import northeast_surrogate
from repro.experiments import churn_experiment, scaling
from repro.experiments.tables import render


class TestDimensionalityScaling:
    @pytest.fixture(scope="class")
    def samples(self):
        config = IndexConfig(
            dims=2, max_depth=24, split_threshold=20, merge_threshold=10
        )
        return scaling.run_dimensionality_sweep(
            1200, config, dims_list=(1, 2, 3)
        )

    def test_covers_requested_dims(self, samples):
        assert [s.dims for s in samples] == [1, 2, 3]

    def test_lookup_probes_independent_of_dims(self, samples):
        """Binary search depends on D, not m."""
        probes = [s.mean_lookup_probes for s in samples]
        assert max(probes) - min(probes) < 2.0

    def test_query_bandwidth_grows_with_dims(self, samples):
        """Fixed-volume boxes cut more cells in higher dimensions."""
        lookups = [s.mean_query_lookups for s in samples]
        assert lookups[0] < lookups[-1]

    def test_render(self, samples):
        text = render(samples)
        assert "dims" in text and "query lookups" in text


class TestChurnAvailability:
    @pytest.fixture(scope="class")
    def samples(self):
        config = IndexConfig(
            dims=2, max_depth=16, split_threshold=20, merge_threshold=10
        )
        points = northeast_surrogate(600, seed=9)
        return churn_experiment.run_churn_availability(
            points, config, replication_factors=(1, 3),
            n_peers=12, n_crashes=2, n_queries=8,
        )

    def test_replication_restores_recall(self, samples):
        by_factor = {s.replication: s for s in samples}
        assert by_factor[3].recall == 1.0
        assert by_factor[3].queries_failed == 0
        assert by_factor[1].recall < by_factor[3].recall

    def test_render(self, samples):
        text = render(samples)
        assert "recall" in text and "replication" in text
