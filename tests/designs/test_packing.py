"""Tests for packing assembly: shuffled copies and chunking."""

import pytest

from repro.designs.blocks import BlockDesign, DesignError
from repro.designs.catalog import build
from repro.designs.packing import chunked_packing_blocks, shuffled_design_rows
from repro.designs.steiner_triple import steiner_triple_system


def coverage_multiplicity(v, blocks, t):
    return BlockDesign.from_blocks(v, blocks).max_coverage(t)


def copied_blocks(design, num_blocks):
    rows = shuffled_design_rows(design, num_blocks)
    r = design.block_size
    return [tuple(rows[i:i + r]) for i in range(0, len(rows), r)]


class TestCopies:
    def test_prefix_of_copies(self):
        sts = steiner_triple_system(9)  # 12 blocks
        blocks = copied_blocks(sts, 30)
        assert len(blocks) == 30
        # 30 blocks = 2 full copies + 6: multiplicity exactly 3 on some pair.
        assert coverage_multiplicity(9, blocks, 2) == 3

    def test_exact_multiple_stays_tight(self):
        sts = steiner_triple_system(9)
        blocks = copied_blocks(sts, 24)
        assert coverage_multiplicity(9, blocks, 2) == 2

    def test_zero_blocks(self):
        sts = steiner_triple_system(9)
        assert copied_blocks(sts, 0) == []
        with pytest.raises(ValueError):
            copied_blocks(sts, -1)


class TestChunking:
    def test_two_chunks_disjoint_points(self):
        a = steiner_triple_system(9)
        b = steiner_triple_system(7)
        blocks = chunked_packing_blocks([a, b], 19, 16)
        assert len(blocks) == 19
        chunk_a = [blk for blk in blocks if max(blk) < 9]
        chunk_b = [blk for blk in blocks if min(blk) >= 9]
        assert len(chunk_a) + len(chunk_b) == 19
        # Proportional split: chunk a has 12/19 of capacity.
        assert 10 <= len(chunk_a) <= 13

    def test_chunking_respects_packing(self):
        a = steiner_triple_system(9)
        b = steiner_triple_system(7)
        blocks = chunked_packing_blocks([a, b], 19, 16)
        assert coverage_multiplicity(16, blocks, 2) == 1

    def test_overflowing_points_rejected(self):
        a = steiner_triple_system(9)
        with pytest.raises(DesignError):
            chunked_packing_blocks([a, a], 5, 17)

    def test_empty_chunks_rejected(self):
        with pytest.raises(DesignError):
            chunked_packing_blocks([], 5, 10)

    def test_interleaving_balances_prefix(self):
        a = steiner_triple_system(9)
        b = steiner_triple_system(9)
        blocks = chunked_packing_blocks([a, b], 8, 18)
        first_four = blocks[:4]
        sides = {0 if max(blk) < 9 else 1 for blk in first_four}
        assert sides == {0, 1}  # both chunks represented early


class TestAgainstCatalogDesigns:
    @pytest.mark.parametrize("v,r,t", [(13, 4, 2), (16, 4, 2), (10, 4, 3)])
    def test_catalog_designs_feed_packings(self, v, r, t):
        design = build(v, r, t)
        demand = design.num_blocks + 3
        blocks = copied_blocks(design, demand)
        assert coverage_multiplicity(v, blocks, t) == 2
