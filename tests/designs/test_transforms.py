"""Tests for design transformations (derived designs, trivial prefixes)."""

import pytest

from repro.designs.blocks import DesignError
from repro.designs.quadruple import boolean_sqs
from repro.designs.transforms import (
    all_subsets_blocks,
    derived_design,
    trivial_design_prefix,
)
from repro.util.combinatorics import binom


class TestDerivedResidual:
    def test_derived_sqs_is_sts(self):
        # Derived design of a 3-(8,4,1) at any point is a 2-(7,3,1): Fano.
        sqs = boolean_sqs(3)
        derived = derived_design(sqs, 0)
        assert derived.v == 7
        assert derived.block_size == 3
        assert derived.is_design(2, 1)

    def test_derived_every_point(self):
        sqs = boolean_sqs(3)
        for point in range(8):
            assert derived_design(sqs, point).is_design(2, 1)

    def test_point_validation(self):
        sqs = boolean_sqs(3)
        with pytest.raises(ValueError):
            derived_design(sqs, 8)
        with pytest.raises(ValueError):
            derived_design(sqs, -1)


class TestTrivial:
    def test_lazy_enumeration(self):
        blocks = list(all_subsets_blocks(5, 3))
        assert len(blocks) == 10
        assert blocks[0] == (0, 1, 2)
        assert blocks[-1] == (2, 3, 4)

    def test_prefix_design(self):
        design = trivial_design_prefix(6, 3, 7)
        assert design.num_blocks == 7
        assert design.max_coverage(3) <= 1

    def test_prefix_overflow_rejected(self):
        with pytest.raises(DesignError):
            trivial_design_prefix(4, 3, binom(4, 3) + 1)

    def test_args_validated(self):
        with pytest.raises(ValueError):
            list(all_subsets_blocks(3, 4))
