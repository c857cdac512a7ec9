"""Exact rational arithmetic and log-space tail sums.

Two needs drive this module:

* Capacity expressions such as ``lambda * C(nx, x+1) / C(r, x+1)`` must be
  floored or compared exactly (Eqn. 1 of the paper brackets ``b`` between two
  such quantities); :class:`Rational` keeps them exact without pulling in
  :mod:`fractions` ergonomics everywhere.
* ``Vuln_rnd(f)`` (Theorem 2) multiplies ``C(n,k)`` — astronomically large —
  by a binomial tail probability — astronomically small. Both are tractable
  only in log space; :func:`log_binom_tail` computes ``log P(Bin(b,p) >= f)``
  stably for ``b`` up to the paper's 38 400 objects and beyond. It pays
  one ``log_binom`` per call: the largest summed term is the anchor, the
  rest follow from the pmf ratio ``(n-k)/(k+1) * p/(1-p)`` walked away
  from it, summed relative to the anchor and cut at ``e**-60`` of the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Rational:
    """An exact non-negative rational with design-theory helpers.

    A tiny value type rather than :class:`fractions.Fraction` so that the
    arithmetic used in capacity formulas stays explicit and the invariants
    (positive denominator, normalized sign) hold by construction.
    """

    numerator: int
    denominator: int = 1

    def __post_init__(self) -> None:
        if self.denominator == 0:
            raise ZeroDivisionError("Rational with zero denominator")
        num, den = self.numerator, self.denominator
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den) or 1
        object.__setattr__(self, "numerator", num // g)
        object.__setattr__(self, "denominator", den // g)

    def __add__(self, other: "Rational | int") -> "Rational":
        other = _as_rational(other)
        return Rational(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __sub__(self, other: "Rational | int") -> "Rational":
        other = _as_rational(other)
        return Rational(
            self.numerator * other.denominator - other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __mul__(self, other: "Rational | int") -> "Rational":
        other = _as_rational(other)
        return Rational(self.numerator * other.numerator, self.denominator * other.denominator)

    def __truediv__(self, other: "Rational | int") -> "Rational":
        other = _as_rational(other)
        return Rational(self.numerator * other.denominator, self.denominator * other.numerator)

    def __lt__(self, other: "Rational | int") -> bool:
        other = _as_rational(other)
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __le__(self, other: "Rational | int") -> bool:
        other = _as_rational(other)
        return self.numerator * other.denominator <= other.numerator * self.denominator

    def __gt__(self, other: "Rational | int") -> bool:
        return _as_rational(other) < self

    def __ge__(self, other: "Rational | int") -> bool:
        return _as_rational(other) <= self

    def floor(self) -> int:
        return self.numerator // self.denominator

    def ceil(self) -> int:
        return -((-self.numerator) // self.denominator)

    def __float__(self) -> float:
        return self.numerator / self.denominator

    def __repr__(self) -> str:
        if self.denominator == 1:
            return f"Rational({self.numerator})"
        return f"Rational({self.numerator}/{self.denominator})"


def _as_rational(value: "Rational | int") -> Rational:
    if isinstance(value, Rational):
        return value
    if isinstance(value, int):
        return Rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Rational")


def log_binom(n: int, k: int) -> float:
    """Natural log of ``C(n, k)``; ``-inf`` outside the valid range."""
    if k < 0 or n < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


#: Each walk stops once a term falls below this fraction of the running
#: sum: ``e**-60``, about 1e-27, far below the last bit of a double.
_CUT = math.exp(-60.0)


def _anchor(n: int, p: float, m: int) -> Tuple[float, float]:
    """``log P(Bin(n, p) = m)`` and the odds ``p / (1 - p)``, for ``0 < p < 1``.

    ``log (1 - p)`` comes from ``log1p`` so that it stays accurate for the
    tiny failure probabilities ``alpha / C(n, r)`` of Theorem 2.
    """
    log_pmf = log_binom(n, m) + m * math.log(p) + (n - m) * math.log1p(-p)
    return log_pmf, p / (1.0 - p)


def _walk_up(n: int, odds: float, start: int, stop: int, total: float) -> float:
    """Add pmf(k)/pmf(start) for ``start < k <= stop`` to ``total``.

    The ratio pmf(k+1)/pmf(k) = (n-k)/(k+1) * odds is at most 1 from the
    mode upward, so the terms only shrink and the cut is safe.
    """
    term = 1.0
    for k in range(start, stop):
        term *= (n - k) / (k + 1) * odds
        total += term
        if term < total * _CUT:
            break
    return total


def _walk_down(n: int, odds: float, start: int, stop: int, total: float) -> float:
    """Add pmf(k)/pmf(start) for ``stop <= k < start`` to ``total``.

    The inverse ratio pmf(k-1)/pmf(k) = k/(n-k+1) / odds is at most 1 from
    the mode downward.
    """
    term = 1.0
    for k in range(start, stop, -1):
        term *= k / ((n - k + 1) * odds)
        total += term
        if term < total * _CUT:
            break
    return total


def _mode(n: int, p: float) -> int:
    """The pmf's mode ``floor((n+1) p)``, clamped into ``[0, n]``."""
    return min(int((n + 1) * p), n)


def log_binom_tail(n: int, p: float, f: int) -> float:
    """``log P(Bin(n, p) >= f)`` computed stably in log space.

    One ``log_binom`` anchor at ``m = max(f, mode)``; the other terms are
    reached by the pmf ratio recurrence, upward from ``m`` to ``n`` and
    (when ``f`` lies below the mode) downward from ``m`` to ``f``. The sum
    is kept in linear space relative to the anchor term, the largest one
    summed, so nothing overflows, and each walk stops once its terms fall
    below ``e**-60`` of the running sum: O(stddev) terms, not O(n).
    """
    if f <= 0:
        return 0.0
    if f > n:
        return float("-inf")
    if p <= 0.0:
        return float("-inf")
    if p >= 1.0:
        return 0.0
    m = max(f, _mode(n, p))
    log_pmf, odds = _anchor(n, p, m)
    total = _walk_up(n, odds, m, n, 1.0)
    total = _walk_down(n, odds, m, f, total)
    return log_pmf + math.log(total)
