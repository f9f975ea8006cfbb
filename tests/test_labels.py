"""Unit and property tests for the label algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import InvalidLabelError, InvalidPointError
from repro.common.labels import (
    candidate_string,
    children,
    coordinate_bits,
    interleave,
    is_valid_label,
    label_depth,
    parent,
    root_label,
    sibling,
    split_dimension,
    virtual_root,
)
from tests.conftest import branch_nodes_between, labels_strategy


class TestRoots:
    def test_virtual_root_2d(self):
        assert virtual_root(2) == "00"

    def test_root_label_2d_matches_paper(self):
        # "# = 0...01" and "root label # has 3 bits" for 2-D data.
        assert root_label(2) == "001"

    def test_root_label_3d(self):
        assert root_label(3) == "0001"

    def test_dims_must_be_positive(self):
        with pytest.raises(InvalidLabelError):
            virtual_root(0)


class TestValidity:
    @pytest.mark.parametrize("label", ["00", "001", "0010", "001101111"])
    def test_valid_2d(self, label):
        assert is_valid_label(label, 2)

    @pytest.mark.parametrize("label", ["", "0", "01", "000", "0a1", "101"])
    def test_invalid_2d(self, label):
        assert not is_valid_label(label, 2)

    def test_virtual_root_is_valid(self):
        assert is_valid_label("000", 3)

    @given(
        st.one_of(st.text(), st.text(alphabet="01x\u0661", max_size=12)),
        st.integers(min_value=-1, max_value=4),
    )
    def test_agrees_with_the_per_character_reference(self, label, dims):
        """``str.strip`` replaced a per-character scan on the hot path;
        the scan stays here as the reference predicate."""
        reference = (
            dims >= 1
            and bool(label)
            and not any(ch not in "01" for ch in label)
            and (
                label == "0" * dims
                or label.startswith("0" * dims + "1")
            )
        )
        assert is_valid_label(label, dims) == reference


class TestNavigation:
    def test_depth_of_root_is_zero(self):
        assert label_depth(root_label(2), 2) == 0

    def test_depth_of_virtual_root(self):
        assert label_depth(virtual_root(2), 2) == -1

    def test_parent_of_root_is_virtual_root(self):
        assert parent(root_label(2), 2) == virtual_root(2)

    def test_virtual_root_has_no_parent(self):
        with pytest.raises(InvalidLabelError):
            parent(virtual_root(2), 2)

    def test_children(self):
        assert children("001", 2) == ("0010", "0011")

    def test_virtual_root_children_rejected(self):
        with pytest.raises(InvalidLabelError):
            children(virtual_root(2), 2)

    def test_sibling(self):
        assert sibling("0010", 2) == "0011"
        assert sibling("001101", 2) == "001100"

    def test_root_has_no_sibling(self):
        with pytest.raises(InvalidLabelError):
            sibling(root_label(2), 2)

    def test_ancestors_order(self):
        """Walking ``parent`` visits the proper prefixes, nearest
        first, and ends at the virtual root."""
        label, chain = "00101", []
        while label != virtual_root(2):
            label = parent(label, 2)
            chain.append(label)
        assert chain == ["0010", "001", "00"]

    def test_split_dimension_cycles(self):
        assert split_dimension("001", 2) == 0
        assert split_dimension("0010", 2) == 1
        assert split_dimension("00101", 2) == 0
        assert split_dimension("0001", 3) == 0
        assert split_dimension("000111", 3) == 2
        assert split_dimension("0001111", 3) == 0

    def test_virtual_root_does_not_split(self):
        with pytest.raises(InvalidLabelError):
            split_dimension(virtual_root(2), 2)


class TestBranchNodes:
    def test_between_leaf_and_root(self):
        # Siblings of every node on the path below the top.
        assert branch_nodes_between("001101", "001", 2) == [
            "0010",
            "00111",
            "001100",
        ]

    def test_requires_proper_ancestor(self):
        with pytest.raises(InvalidLabelError):
            branch_nodes_between("0011", "0010", 2)
        with pytest.raises(InvalidLabelError):
            branch_nodes_between("0011", "0011", 2)

    @given(labels_strategy(2, 10), st.data())
    def test_branch_nodes_tile_the_subtree(self, leaf, data):
        """leaf + its branch nodes partition the top's subtree."""
        if len(leaf) <= 4:
            return
        cut = data.draw(st.integers(min_value=3, max_value=len(leaf) - 1))
        top = leaf[:cut]
        branches = branch_nodes_between(leaf, top, 2)
        # Disjoint: no branch is a prefix of another or of the leaf.
        nodes = branches + [leaf]
        for a in nodes:
            for b in nodes:
                if a != b:
                    assert not b.startswith(a)
        # Complete: total measure of cells equals the top's cell.
        total = sum(2.0 ** -(len(node) - len(top)) for node in nodes)
        assert abs(total - 1.0) < 1e-12


class TestBits:
    def test_coordinate_bits_paper_example(self):
        # Section 5: 0.2 -> 001..., 0.4 -> 011...
        assert coordinate_bits(0.2, 3) == "001"
        assert coordinate_bits(0.4, 3) == "011"

    def test_coordinate_bits_powers_of_two(self):
        assert coordinate_bits(0.5, 4) == "1000"
        assert coordinate_bits(0.75, 4) == "1100"
        assert coordinate_bits(0.0, 4) == "0000"

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidPointError):
            coordinate_bits(1.0, 4)
        with pytest.raises(InvalidPointError):
            coordinate_bits(-0.1, 4)

    def test_interleave_dimension_order(self):
        # dim-0 bit first, then dim-1, alternating.
        assert interleave((0.5, 0.0), 4) == "1000"
        assert interleave((0.0, 0.5), 4) == "0100"

    def test_interleave_length(self):
        assert len(interleave((0.3, 0.7), 9)) == 9

    def test_candidate_string_prefixes_nest(self):
        cand = candidate_string((0.3, 0.9), 20)
        assert cand.startswith(root_label(2))
        assert len(cand) == 3 + 20

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                     allow_nan=False))
    def test_bits_reconstruct_coordinate(self, value):
        """Reading 40 bits back reconstructs the coordinate to 2^-40."""
        bits = coordinate_bits(value, 40)
        approx = sum(
            2.0 ** -(position + 1)
            for position, bit in enumerate(bits)
            if bit == "1"
        )
        assert abs(approx - value) < 2.0**-40
