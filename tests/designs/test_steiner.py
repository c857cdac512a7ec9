"""Tests for STS (Bose/Skolem), SQS (boolean/doubling/search), and resolvables."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs.quadruple import (
    boolean_sqs,
    double_sqs,
    sqs_constructible,
    sqs_exists,
    steiner_quadruple_system,
)
from repro.designs.resolvable import (
    one_factorization,
    pairs_design,
    partition_design,
)
from repro.designs.steiner_triple import steiner_triple_system, sts_exists
from repro.designs.blocks import DesignError


class TestSTS:
    def test_existence_criterion(self):
        admissible = [v for v in range(3, 30) if sts_exists(v)]
        assert admissible == [3, 7, 9, 13, 15, 19, 21, 25, 27]

    @pytest.mark.parametrize("v", [7, 13, 19, 25, 31])  # Skolem: v = 1 mod 6
    def test_skolem_orders(self, v):
        design = steiner_triple_system(v)
        assert design.v == v
        assert design.num_blocks == v * (v - 1) // 6
        assert design.is_design(2, 1)

    @pytest.mark.parametrize("v", [3, 9, 15, 21, 27, 33])  # Bose: v = 3 mod 6
    def test_bose_orders(self, v):
        design = steiner_triple_system(v)
        assert design.v == v
        assert design.is_design(2, 1)

    def test_sts_69_the_fig2_system(self):
        design = steiner_triple_system(69)
        assert design.num_blocks == 782
        assert design.is_design(2, 1)

    @pytest.mark.slow
    def test_sts_255(self):
        design = steiner_triple_system(255)
        assert design.num_blocks == 255 * 254 // 6
        assert design.is_design(2, 1)

    def test_inadmissible_rejected(self):
        for v in (5, 8, 11, 17):
            with pytest.raises(ValueError):
                steiner_triple_system(v)


class TestSQS:
    def test_existence_criterion(self):
        admissible = [v for v in range(4, 30) if sqs_exists(v)]
        assert admissible == [4, 8, 10, 14, 16, 20, 22, 26, 28]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_boolean(self, m):
        design = boolean_sqs(m)
        v = 1 << m
        assert design.v == v
        assert design.num_blocks == v * (v - 1) * (v - 2) // 24
        assert design.is_design(3, 1)

    def test_doubling_preserves_design(self):
        doubled = double_sqs(boolean_sqs(3))
        assert doubled.v == 16
        assert doubled.is_design(3, 1)

    def test_doubling_rejects_odd(self):
        from repro.designs.blocks import BlockDesign

        odd = BlockDesign.from_blocks(5, [(0, 1, 2, 3)])
        with pytest.raises(DesignError):
            double_sqs(odd)

    @pytest.mark.parametrize("v", [10, 14, 20])
    def test_sporadic_and_doubled(self, v):
        design = steiner_quadruple_system(v)
        assert design.v == v
        assert design.is_design(3, 1)

    @pytest.mark.slow
    def test_sqs_28_the_paper_subsystem(self):
        design = steiner_quadruple_system(28)
        assert design.num_blocks == 28 * 27 * 26 // 24
        assert design.is_design(3, 1)

    def test_constructibility_map(self):
        assert sqs_constructible(8)
        assert sqs_constructible(10)
        assert sqs_constructible(20)
        assert sqs_constructible(28)
        assert sqs_constructible(256)
        assert not sqs_constructible(26)  # exists (Hanani) but not built here
        assert not sqs_constructible(9)  # does not exist at all

    def test_nonexistent_rejected(self):
        with pytest.raises(DesignError):
            steiner_quadruple_system(12)

    def test_existing_but_unimplemented_rejected(self):
        with pytest.raises(DesignError):
            steiner_quadruple_system(26)


class TestOneFactorization:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 12).map(lambda t: 2 * t))
    def test_round_robin_valid(self, v):
        rounds = one_factorization(v)
        assert len(rounds) == v - 1
        # Each round is a perfect matching; together they hold every edge once.
        for factor in rounds:
            assert sorted(p for edge in factor for p in edge) == list(range(v))
        edges = sorted(edge for factor in rounds for edge in factor)
        assert edges == list(combinations(range(v), 2))

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            one_factorization(7)


class TestPartitionAndPairs:
    def test_partition_design(self):
        design = partition_design(12, 4)
        assert design.num_blocks == 3
        assert design.is_design(1, 1)

    def test_partition_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            partition_design(10, 4)

    def test_pairs_design(self):
        design = pairs_design(6)
        assert design.num_blocks == 15
        assert design.is_design(2, 1)
