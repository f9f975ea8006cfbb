"""Unit and property tests for regions and boundary semantics."""

import pytest
from hypothesis import given

from repro.common.errors import (
    InvalidLabelError,
    InvalidPointError,
    InvalidRegionError,
)
from repro.common.geometry import (
    Region,
    check_point,
    clip,
    query_covers_cell,
    query_overlaps_cell,
    region_of_bits,
    region_of_label,
    unit_region,
)
from tests.conftest import (
    cell_resolves_query,
    labels_strategy,
    points_strategy,
)


class TestRegionBasics:
    def test_unit_region(self):
        region = unit_region(2)
        assert region.lows == (0.0, 0.0)
        assert region.highs == (1.0, 1.0)
        assert region.volume() == 1.0

    def test_invalid_extent_rejected(self):
        with pytest.raises(InvalidRegionError):
            Region((0.5,), (0.4,))
        with pytest.raises(InvalidRegionError):
            Region((0.0, 0.0), (1.1, 1.0))
        with pytest.raises(InvalidRegionError):
            Region((), ())

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InvalidRegionError):
            Region((0.0, 0.0), (1.0,))

    def test_split_halves_exactly(self):
        lower, upper = unit_region(2).split(0)
        assert lower.highs[0] == 0.5 == upper.lows[0]
        assert lower.volume() == upper.volume() == 0.5

    def test_center_and_side(self):
        region = Region((0.25, 0.0), (0.75, 0.5))
        assert region.center() == (0.5, 0.25)
        assert region.side(0) == 0.5

    def test_contains_region(self):
        outer = Region((0.0, 0.0), (0.5, 0.5))
        inner = Region((0.1, 0.1), (0.4, 0.4))
        assert outer.contains_region(inner)
        assert not inner.contains_region(outer)


class TestBoundarySemantics:
    """The half-open/closed rules every query algorithm relies on."""

    def test_cells_are_half_open(self):
        cell = Region((0.0, 0.0), (0.5, 0.5))
        assert cell.contains_point((0.0, 0.0))
        assert not cell.contains_point((0.5, 0.25))

    def test_queries_are_closed(self):
        query = Region((0.2, 0.2), (0.5, 0.5))
        assert query.contains_point_closed((0.5, 0.5))
        assert query.contains_point_closed((0.2, 0.2))

    def test_contains_point_rejects_wrong_arity(self):
        # Regression: the zip-based scan silently truncated, so a 1-D
        # point "matched" a 2-D region by checking only dimension 0.
        region = Region((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(InvalidPointError):
            region.contains_point((0.5,))
        with pytest.raises(InvalidPointError):
            region.contains_point((0.5, 0.5, 0.5))
        with pytest.raises(InvalidPointError):
            region.contains_point_closed((0.5,))
        with pytest.raises(InvalidPointError):
            region.contains_point_closed((0.5, 0.5, 0.5))

    def test_query_touching_cell_low_edge_overlaps(self):
        # A record exactly at the shared boundary lives in the upper
        # cell, and a closed query ending there still matches it.
        query = Region((0.3, 0.3), (0.5, 0.5))
        upper_cell = Region((0.5, 0.0), (1.0, 1.0))
        assert query_overlaps_cell(query, upper_cell)

    def test_query_starting_at_cell_high_edge_does_not_overlap(self):
        query = Region((0.5, 0.3), (0.7, 0.5))
        lower_cell = Region((0.0, 0.0), (0.5, 1.0))
        assert not query_overlaps_cell(query, lower_cell)

    def test_query_covers_cell(self):
        query = Region((0.0, 0.0), (0.5, 0.5))
        assert query_covers_cell(query, Region((0.0, 0.0), (0.5, 0.5)))
        assert query_covers_cell(query, Region((0.25, 0.25), (0.5, 0.5)))
        assert not query_covers_cell(query, Region((0.25, 0.25), (0.6, 0.5)))

    def test_cell_resolves_query_interior(self):
        cell = Region((0.0, 0.0), (0.5, 0.5))
        assert cell_resolves_query(cell, Region((0.1, 0.1), (0.4, 0.4)))

    def test_cell_does_not_resolve_query_touching_its_upper_face(self):
        # Matching records can sit exactly on the face, in the next cell.
        cell = Region((0.0, 0.0), (0.5, 0.5))
        assert not cell_resolves_query(cell, Region((0.1, 0.1), (0.5, 0.4)))

    def test_global_boundary_resolves(self):
        cell = Region((0.5, 0.5), (1.0, 1.0))
        assert cell_resolves_query(cell, Region((0.6, 0.6), (1.0, 1.0)))

    def test_clip_none_when_disjoint(self):
        assert clip(
            Region((0.6, 0.6), (0.8, 0.8)), Region((0.0, 0.0), (0.5, 0.5))
        ) is None

    def test_clip_intersection(self):
        clipped = clip(
            Region((0.2, 0.2), (0.8, 0.8)), Region((0.5, 0.0), (1.0, 0.6))
        )
        assert clipped == Region((0.5, 0.2), (0.8, 0.6))


class TestRegionOfLabel:
    def test_root_covers_space(self):
        assert region_of_label("001", 2) == unit_region(2)
        assert region_of_label("00", 2) == unit_region(2)

    def test_first_split_is_dimension_zero(self):
        assert region_of_label("0010", 2) == Region((0.0, 0.0), (0.5, 1.0))
        assert region_of_label("0011", 2) == Region((0.5, 0.0), (1.0, 1.0))

    def test_second_split_is_dimension_one(self):
        assert region_of_label("00101", 2) == Region((0.0, 0.5), (0.5, 1.0))

    def test_invalid_label_rejected(self):
        with pytest.raises(InvalidLabelError):
            region_of_label("10", 2)

    def test_region_of_bits_matches_label(self):
        assert region_of_bits("01", 2) == region_of_label("00101", 2)

    def test_region_of_bits_rejects_junk(self):
        with pytest.raises(InvalidLabelError):
            region_of_bits("0x", 2)

    @given(labels_strategy(2, 14))
    def test_volume_halves_per_level(self, label):
        region = region_of_label(label, 2)
        assert abs(region.volume() - 2.0 ** -(len(label) - 3)) < 1e-15

    @given(labels_strategy(2, 10), points_strategy(2))
    def test_point_in_exactly_one_child(self, label, point):
        region = region_of_label(label, 2)
        if not region.contains_point(point):
            return
        children = [
            region_of_label(label + bit, 2) for bit in "01"
        ]
        containing = [c for c in children if c.contains_point(point)]
        assert len(containing) == 1

    @given(points_strategy(3))
    def test_3d_descent_follows_interleaving(self, point):
        from repro.common.labels import candidate_string

        label = candidate_string(point, 9)
        assert region_of_label(label, 3).contains_point(point)


class TestCheckPoint:
    def test_valid(self):
        assert check_point([0.1, 0.9], 2) == (0.1, 0.9)

    def test_wrong_arity(self):
        with pytest.raises(InvalidPointError):
            check_point((0.1,), 2)

    def test_out_of_range(self):
        with pytest.raises(InvalidPointError):
            check_point((0.1, 1.0), 2)
