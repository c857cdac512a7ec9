"""Unit and property tests for repro.util.combinatorics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.combinatorics import (
    binom,
    ceil_div,
    is_prime,
    lcm_many,
    prime_power_decomposition,
)


class TestBinom:
    def test_matches_math_comb_in_range(self):
        for n in range(12):
            for k in range(n + 1):
                assert binom(n, k) == math.comb(n, k)

    def test_zero_outside_range(self):
        assert binom(5, 7) == 0
        assert binom(-1, 0) == 0
        assert binom(3, -2) == 0

    def test_paper_values(self):
        # Capacities used throughout the paper's evaluation.
        assert binom(69, 2) // binom(3, 2) == 782  # STS(69) blocks
        assert binom(65, 3) // binom(5, 3) == 4368  # S(3,5,65) blocks
        assert binom(257, 2) == 32896

    @given(st.integers(0, 60), st.integers(0, 60))
    def test_symmetry(self, n, k):
        assert binom(n, k) == binom(n, n - k) if k <= n else binom(n, k) == 0

    @given(st.integers(1, 50), st.integers(0, 50))
    def test_pascal_rule(self, n, k):
        assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


class TestCeilDiv:
    @given(st.integers(-1000, 1000), st.integers(1, 100))
    def test_matches_ceiling(self, a, b):
        assert ceil_div(a, b) == math.ceil(a / b)

    def test_rejects_bad_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(3, 0)
        with pytest.raises(ValueError):
            ceil_div(3, -2)


class TestLcm:
    def test_basic(self):
        assert lcm_many([2, 3, 4]) == 12
        assert lcm_many([7]) == 7

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            lcm_many([])
        with pytest.raises(ValueError):
            lcm_many([2, 0])


class TestPrimes:
    def test_small_primes(self):
        primes = [p for p in range(60) if is_prime(p)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_prime_power_decomposition(self):
        assert prime_power_decomposition(8) == (2, 3)
        assert prime_power_decomposition(9) == (3, 2)
        assert prime_power_decomposition(64) == (2, 6)
        assert prime_power_decomposition(12) is None
        assert prime_power_decomposition(1) is None
        assert prime_power_decomposition(13) == (13, 1)

    @given(st.integers(2, 7), st.integers(1, 6))
    def test_decomposition_roundtrip(self, p, m):
        if is_prime(p):
            assert prime_power_decomposition(p**m) == (p, m)
