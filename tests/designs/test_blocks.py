"""Tests for BlockDesign containers and design/packing verification."""

import pytest
from itertools import combinations

from repro.designs.blocks import (
    BlockDesign,
    DesignError,
    divisibility_conditions_hold,
)

FANO = [
    (0, 1, 2), (0, 3, 4), (0, 5, 6),
    (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5),
]


class TestConstruction:
    def test_fano_is_design(self):
        design = BlockDesign.from_blocks(7, FANO)
        assert design.is_design(2, 1)
        assert design.max_coverage(2) <= 1
        assert design.num_blocks == 7
        assert design.block_size == 3

    def test_rejects_duplicate_points_in_block(self):
        with pytest.raises(DesignError):
            BlockDesign.from_blocks(5, [(0, 0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(DesignError):
            BlockDesign.from_blocks(3, [(0, 1, 3)])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(DesignError):
            BlockDesign.from_blocks(5, [(0, 1, 2), (3, 4)])

    def test_rejects_empty(self):
        with pytest.raises(DesignError):
            BlockDesign.from_blocks(5, [])

    def test_blocks_are_sorted_tuples(self):
        design = BlockDesign.from_blocks(5, [(2, 0, 4)])
        assert design.blocks == ((0, 2, 4),)


class TestCoverage:
    def test_coverage_counts_fano(self):
        design = BlockDesign.from_blocks(7, FANO)
        counts = design.coverage_counts(2)
        assert len(counts) == 21
        assert set(counts.values()) == {1}

    def test_multiset_blocks_raise_coverage(self):
        design = BlockDesign.from_blocks(7, FANO + FANO)
        assert design.max_coverage(2) == 2
        assert design.is_design(2, 2)
        assert design.max_coverage(2) > 1
        assert design.max_coverage(2) <= 2

    def test_coverage_brute_force_agreement(self):
        design = BlockDesign.from_blocks(7, FANO)
        counts = design.coverage_counts(2)
        for pair in combinations(range(7), 2):
            expected = sum(1 for blk in FANO if set(pair) <= set(blk))
            assert counts.get(pair, 0) == expected

    def test_invalid_t(self):
        design = BlockDesign.from_blocks(7, FANO)
        with pytest.raises(ValueError):
            design.coverage_counts(0)
        with pytest.raises(ValueError):
            design.coverage_counts(4)

    def test_incomplete_design_detected(self):
        # Drop one block: pairs in it are no longer covered.
        design = BlockDesign.from_blocks(7, FANO[:-1])
        assert not design.is_design(2, 1)
        assert design.max_coverage(2) <= 1


class TestOperations:
    def test_relabel(self):
        design = BlockDesign.from_blocks(7, FANO)
        shifted = design.relabel([i + 1 for i in range(7)], 8)
        assert shifted.v == 8
        assert shifted.max_coverage(2) <= 1
        assert all(0 not in block for block in shifted.blocks)

    def test_relabel_rejects_non_injective(self):
        design = BlockDesign.from_blocks(7, FANO)
        with pytest.raises(DesignError):
            design.relabel([0] * 7, 7)

    def test_relabel_rejects_short_mapping(self):
        design = BlockDesign.from_blocks(7, FANO)
        with pytest.raises(DesignError):
            design.relabel([0, 1, 2], 7)


class TestCapacityFormulas:
    def test_divisibility_conditions(self):
        assert divisibility_conditions_hold(7, 3, 2, 1)
        assert not divisibility_conditions_hold(8, 3, 2, 1)
        assert divisibility_conditions_hold(8, 4, 3, 1)  # SQS(8)
        assert not divisibility_conditions_hold(9, 4, 3, 1)
