"""Exact combinatorial primitives used throughout the library.

Everything here is exact integer arithmetic: the availability bounds in the
paper (Lemmas 1–3) are quotients of binomial coefficients under floors, and
floating-point evaluation of those floors is wrong surprisingly often (for
example ``C(257, 3) / C(5, 3)`` is exactly representable but nearby parameter
choices are not). All public functions therefore work on ``int``.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple


def binom(n: int, k: int) -> int:
    """Binomial coefficient ``C(n, k)``, zero outside ``0 <= k <= n``.

    Unlike :func:`math.comb`, negative ``n`` or ``k`` yield 0 instead of
    raising: the paper's formulas index binomials with expressions such as
    ``C(k, x+1)`` where the convention ``C(a, b) = 0`` for ``b > a`` is
    assumed implicitly.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of ``a / b`` for integers, ``b > 0``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires positive divisor, got {b}")
    return -((-a) // b)


def lcm_many(values: Iterable[int]) -> int:
    """Least common multiple of an iterable of positive integers."""
    result = 1
    seen_any = False
    for value in values:
        if value <= 0:
            raise ValueError(f"lcm_many requires positive integers, got {value}")
        result = math.lcm(result, value)
        seen_any = True
    if not seen_any:
        raise ValueError("lcm_many requires at least one value")
    return result


def is_prime(n: int) -> bool:
    """Deterministic primality check adequate for design-theory sizes.

    Trial division is fine: this library constructs designs over prime powers
    below a few thousand, where sqrt-bounded division beats the constant
    factors of Miller–Rabin.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    divisor = 3
    while divisor * divisor <= n:
        if n % divisor == 0:
            return False
        divisor += 2
    return True


def prime_power_decomposition(n: int) -> Tuple[int, int] | None:
    """Return ``(p, m)`` with ``n == p**m`` and ``p`` prime, else ``None``."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p:
            continue
        m = 0
        remaining = n
        while remaining % p == 0:
            remaining //= p
            m += 1
        return (p, m) if remaining == 1 else None
    return (n, 1) if is_prime(n) else None
