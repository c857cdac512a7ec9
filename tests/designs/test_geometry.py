"""Tests for affine/projective line designs, unitals and subline designs."""

import pytest

from repro.designs.affine import affine_geometry_design
from repro.designs.projective import (
    projective_geometry_design,
    projective_space_size,
)
from repro.designs.subline import subline_design
from repro.designs.unital import hermitian_unital
from repro.util.combinatorics import binom


class TestAffine:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_affine_plane(self, q):
        design = affine_geometry_design(2, q)
        assert design.v == q * q
        assert design.block_size == q
        assert design.num_blocks == q * (q + 1)
        assert design.is_design(2, 1)

    def test_ag_3_3(self):
        design = affine_geometry_design(3, 3)
        assert design.v == 27
        assert design.is_design(2, 1)
        assert design.num_blocks == binom(27, 2) // binom(3, 2)

    def test_ag_3_4_is_the_fig4_correction(self):
        # The corrected n1 = 64 cell for (n = 71, r = 4); see DESIGN.md.
        design = affine_geometry_design(3, 4)
        assert design.v == 64
        assert design.block_size == 4
        assert design.is_design(2, 1)

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            affine_geometry_design(1, 3)

    def test_point_loads_uniform(self):
        design = affine_geometry_design(2, 4)
        loads = design.coverage_counts(1)
        assert len(loads) == 16
        assert set(loads.values()) == {5}  # q + 1 lines per point


class TestProjective:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_projective_plane(self, q):
        design = projective_geometry_design(2, q)
        assert design.v == q * q + q + 1
        assert design.block_size == q + 1
        assert design.num_blocks == design.v  # planes are symmetric designs
        assert design.is_design(2, 1)

    def test_pg_4_2_is_sts_31(self):
        design = projective_geometry_design(4, 2)
        assert design.v == 31
        assert design.block_size == 3
        assert design.is_design(2, 1)

    def test_space_size(self):
        assert projective_space_size(2, 4) == 21
        assert projective_space_size(7, 2) == 255

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            projective_geometry_design(1, 2)


class TestUnital:
    def test_h3_is_2_28_4_1(self):
        design = hermitian_unital(3)
        assert design.v == 28
        assert design.block_size == 4
        assert design.num_blocks == 63
        assert design.is_design(2, 1)

    @pytest.mark.slow
    def test_h4_is_2_65_5_1(self):
        design = hermitian_unital(4)
        assert design.v == 65
        assert design.block_size == 5
        assert design.num_blocks == 208
        assert design.is_design(2, 1)


class TestSubline:
    def test_inversive_plane_order_3(self):
        design = subline_design(3, 2)
        assert design.v == 10
        assert design.block_size == 4
        assert design.is_design(3, 1)

    def test_s_3_5_17(self):
        design = subline_design(4, 2)
        assert design.v == 17
        assert design.block_size == 5
        assert design.num_blocks == 68
        # verified 3-design inside the constructor; double-check here
        assert design.is_design(3, 1)

    @pytest.mark.slow
    def test_s_3_5_65(self):
        design = subline_design(4, 3)
        assert design.v == 65
        assert design.num_blocks == 4368
        assert design.is_design(3, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            subline_design(4, 1)
        with pytest.raises(ValueError):
            subline_design(6, 2)
