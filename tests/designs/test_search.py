"""Tests for DLX-based Steiner-system search."""

import pytest

from repro.designs.search import search_steiner_system


class TestSearch:
    def test_fano(self):
        design = search_steiner_system(7, 3, 2)
        assert design is not None
        assert design.num_blocks == 7
        assert design.is_design(2, 1)

    def test_sqs_8(self):
        design = search_steiner_system(8, 4, 3)
        assert design is not None
        assert design.num_blocks == 14
        assert design.is_design(3, 1)

    def test_sts_9(self):
        design = search_steiner_system(9, 3, 2)
        assert design is not None
        assert design.is_design(2, 1)

    def test_divisibility_shortcut(self):
        assert search_steiner_system(8, 3, 2) is None  # 8 != 1,3 mod 6

    def test_no_symmetry_breaking_still_works(self):
        design = search_steiner_system(7, 3, 2, fix_first_block=False)
        assert design is not None
        assert design.is_design(2, 1)

    def test_first_block_is_canonical(self):
        design = search_steiner_system(9, 3, 2)
        assert (0, 1, 2) in design.blocks

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            search_steiner_system(5, 6, 2)

    @pytest.mark.slow
    def test_sqs_10(self):
        design = search_steiner_system(10, 4, 3)
        assert design is not None
        assert design.num_blocks == 30
        assert design.is_design(3, 1)

    def test_trivial_t_equals_r(self):
        design = search_steiner_system(5, 2, 2)
        assert design is not None
        assert design.num_blocks == 10  # all pairs


class TestBudgetExhaustion:
    """The node budget must surface as an exception, never as None.

    ``None`` means "provably no such design exists"; a budget stop is a
    different fact ("gave up undecided") and conflating the two would let
    the catalog record false non-existence.
    """

    def test_budget_exhaustion_raises_not_none(self):
        from repro.designs.exact_cover import SearchBudgetExceeded

        with pytest.raises(SearchBudgetExceeded):
            search_steiner_system(13, 3, 2, max_nodes=1)

    def test_zero_budget_raises_immediately(self):
        from repro.designs.exact_cover import SearchBudgetExceeded

        with pytest.raises(SearchBudgetExceeded):
            search_steiner_system(7, 3, 2, max_nodes=0)

    def test_budget_large_enough_still_solves(self):
        design = search_steiner_system(7, 3, 2, max_nodes=10_000)
        assert design is not None
        assert design.is_design(2, 1)

    def test_divisibility_failure_beats_budget(self):
        # The arithmetic shortcut decides 8 != 1,3 (mod 6) without ever
        # expanding a node, so even a zero budget returns a clean None.
        assert search_steiner_system(8, 3, 2, max_nodes=0) is None


class TestSporadicOracleCrossCheck:
    """S(2,3,13): DLX as an independent oracle against the algebraic catalog."""

    def test_sts_13_against_catalog_construction(self):
        from repro.designs.catalog import build

        found = search_steiner_system(13, 3, 2)
        assert found is not None
        assert found.is_design(2, 1)
        algebraic = build(13, 3, 2)
        assert algebraic.is_design(2, 1)
        # Both realizations must agree on every counting invariant.
        # 26 = C(13, 2) / C(3, 2) blocks.
        assert found.num_blocks == algebraic.num_blocks == 26
        assert found.coverage_counts(1) == algebraic.coverage_counts(1)
        assert found.max_coverage(2) == algebraic.max_coverage(2) == 1
