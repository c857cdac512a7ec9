"""Unit and property tests for repro.util.intmath."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.intmath import (
    Rational,
    log_binom,
    log_binom_tail,
)

nonzero = st.integers(-50, 50).filter(lambda x: x != 0)


class TestRational:
    @given(st.integers(-50, 50), nonzero, st.integers(-50, 50), nonzero)
    def test_arithmetic_matches_fraction(self, a, b, c, d):
        left = Rational(a, b)
        right = Rational(c, d)
        fl, fr = Fraction(a, b), Fraction(c, d)
        assert Fraction((left + right).numerator, (left + right).denominator) == fl + fr
        assert Fraction((left - right).numerator, (left - right).denominator) == fl - fr
        assert Fraction((left * right).numerator, (left * right).denominator) == fl * fr
        if c != 0:
            quotient = left / right
            assert Fraction(quotient.numerator, quotient.denominator) == fl / fr

    @given(st.integers(-100, 100), nonzero)
    def test_floor_ceil(self, a, b):
        value = Rational(a, b)
        assert value.floor() == math.floor(Fraction(a, b))
        assert value.ceil() == math.ceil(Fraction(a, b))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Rational(1, 0)

    def test_normalization(self):
        assert Rational(2, 4) == Rational(1, 2)
        assert Rational(-1, -2) == Rational(1, 2)
        assert Rational(1, -2) == Rational(-1, 2)

    @given(st.integers(-50, 50), nonzero, st.integers(-50, 50), nonzero)
    def test_ordering(self, a, b, c, d):
        assert (Rational(a, b) < Rational(c, d)) == (Fraction(a, b) < Fraction(c, d))
        assert (Rational(a, b) <= Rational(c, d)) == (Fraction(a, b) <= Fraction(c, d))

    def test_int_coercion_in_ops(self):
        assert Rational(1, 2) + 1 == Rational(3, 2)
        assert Rational(3, 2) > 1

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            Rational(1, 2) + 0.5  # floats would silently lose exactness


class TestLogBinom:
    @given(st.integers(0, 300), st.integers(0, 300))
    def test_matches_exact(self, n, k):
        if k <= n:
            assert log_binom(n, k) == pytest.approx(
                math.log(math.comb(n, k)), rel=1e-10
            )
        else:
            assert log_binom(n, k) == float("-inf")


class TestBinomTail:
    def exact_tail(self, n, p, f):
        return sum(
            math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(f, n + 1)
        )

    @given(
        st.integers(1, 80),
        st.floats(0.01, 0.99),
        st.data(),
    )
    def test_matches_exact_small(self, n, p, data):
        f = data.draw(st.integers(0, n))
        expected = self.exact_tail(n, p, f)
        got = log_binom_tail(n, p, f)
        if expected == 0.0:
            assert got == float("-inf")
        else:
            assert got == pytest.approx(math.log(expected), abs=1e-8)

    def test_boundaries(self):
        assert log_binom_tail(10, 0.5, 0) == 0.0
        assert log_binom_tail(10, 0.5, 11) == float("-inf")
        assert log_binom_tail(10, 0.0, 1) == float("-inf")
        assert log_binom_tail(10, 1.0, 10) == 0.0

    def test_deep_tail_far_beyond_floats(self):
        # P(Bin(38400, 1e-4) >= 60) underflows naive products but must still
        # be finite and ordered in log space.
        a = log_binom_tail(38400, 1e-4, 60)
        b = log_binom_tail(38400, 1e-4, 80)
        assert a > b > float("-inf")

    def test_scipy_agreement(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for n, p, f in [(1000, 0.01, 30), (38400, 0.002, 120), (600, 0.2, 150)]:
            expected = scipy_stats.binom.logsf(f - 1, n, p)
            assert log_binom_tail(n, p, f) == pytest.approx(expected, abs=1e-6)

def _exact_pmf(n, p):
    """``P(Bin(n, p) = k)`` for every k as exact numerators over ``d**n``.

    ``p`` is a double, so it is exactly ``a / d`` for integers a and d.
    """
    a, d = Fraction(p).as_integer_ratio()
    up = [1]
    down = [1]
    for _ in range(n):
        up.append(up[-1] * a)
        down.append(down[-1] * (d - a))
    return [math.comb(n, k) * up[k] * down[n - k] for k in range(n + 1)], d**n


def _log_ratio(numerator, denominator):
    if numerator == 0:
        return float("-inf")
    return math.log(numerator) - math.log(denominator)


def _reference_tail(n, p, f):
    """The term-by-term tail sum the ratio walk replaced: three ``lgamma``
    calls per term, cut 60 nats below the peak past the mode."""
    p_log = math.log(p)
    q_log = math.log1p(-p)
    terms = []
    peak = float("-inf")
    for k in range(f, n + 1):
        term = log_binom(n, k) + k * p_log + (n - k) * q_log
        terms.append(term)
        peak = max(peak, term)
        if term < peak - 60.0 and k > n * p:
            break
    return peak + math.log(sum(math.exp(t - peak) for t in terms))


def _mode(n, p):
    return min(int((n + 1) * p), n)


#: One f per region of the pmf: the ends, deep in either tail, around the
#: mode, and anywhere.
F_REGIONS = (
    lambda n, m, rng: 1,
    lambda n, m, rng: n,
    lambda n, m, rng: max(0, m - 1),
    lambda n, m, rng: m,
    lambda n, m, rng: min(n, m + 1),
    lambda n, m, rng: rng.randint(0, m),
    lambda n, m, rng: rng.randint(m, n),
    lambda n, m, rng: min(n, m + 3 * int(math.sqrt(n)) + 5),
)


def _oracle_grid(cases=300, seed=20150):
    rng = random.Random(seed)
    for index in range(cases):
        n = rng.randint(1, 300)
        p = 10 ** rng.uniform(-6, math.log10(0.98))
        f = F_REGIONS[index % len(F_REGIONS)](n, _mode(n, p), rng)
        yield n, p, f


class TestBinomTailExactOracle:
    """The tail walk against an exact rational sum, to a relative 1e-11."""

    REL = 1e-11

    def check(self, n, p, fs):
        pmf, total = _exact_pmf(n, p)
        # heads[f] = exact numerator of P(X < f).
        heads = [0]
        for term in pmf:
            heads.append(heads[-1] + term)
        for f in fs:
            tail = _log_ratio(heads[-1] - heads[min(max(f, 0), n + 1)], total)
            got = log_binom_tail(n, p, f)
            if tail == float("-inf"):
                assert got == tail, (n, p, f)
            else:
                assert abs(got - tail) <= self.REL, (n, p, f, got, tail)

    def test_seeded_grid(self):
        for n, p, f in _oracle_grid():
            self.check(n, p, [f])

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 300])
    @pytest.mark.parametrize("p", [1e-6, 0.3, 0.5, 0.98, 1 - 1e-9])
    def test_every_f(self, n, p):
        self.check(n, p, range(-1, n + 2))

    def test_f_at_the_mode(self):
        for n, p in [(300, 0.5), (299, 0.01), (120, 0.25), (64, 0.9)]:
            mode = _mode(n, p)
            self.check(n, p, [mode - 1, mode, mode + 1])

    def test_out_of_range_f(self):
        for n, p in [(10, 0.3), (300, 1e-6)]:
            assert log_binom_tail(n, p, 0) == 0.0
            assert log_binom_tail(n, p, -3) == 0.0
            assert log_binom_tail(n, p, n + 1) == float("-inf")

    def test_f_equals_n(self):
        assert log_binom_tail(300, 0.3, 300) == pytest.approx(
            300 * math.log(0.3), rel=1e-14
        )

    def test_degenerate_p(self):
        for f in (1, 5, 10):
            assert log_binom_tail(10, 0.0, f) == float("-inf")
            assert log_binom_tail(10, 1.0, f) == 0.0


class TestBinomTailPaperScale:
    """At b = 38 400 (the paper's largest object count) the walk matches
    the term-by-term sum it replaced."""

    @pytest.mark.parametrize("p", [1e-5, 1e-4, 2e-3, 0.01, 0.3])
    def test_matches_term_by_term_sum(self, p):
        n = 38_400
        mode = _mode(n, p)
        spread = int(math.sqrt(n * p)) + 1
        for f in sorted({1, max(1, mode - 3 * spread), max(1, mode), mode + 1,
                         mode + spread, mode + 10 * spread, mode + 400}):
            assert log_binom_tail(n, p, f) == pytest.approx(
                _reference_tail(n, p, f), rel=1e-12, abs=1e-9
            )
