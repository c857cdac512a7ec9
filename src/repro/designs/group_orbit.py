"""Permutation-group orbits on the projective line, for orbit designs.

Several of the Steiner systems the paper relies on (Sec. III-C) are orbits
of a single base block under a fractional-linear group acting on the
projective line PG(1, q): inversive planes and their higher-dimensional
subline relatives ``S(3, q+1, q^d+1)``, the small Witt design S(5, 6, 12)
(an orbit under PSL(2, 11)), and S(3, 4, 10) / S(3, 4, 14) under PSL(2, 9)
and PSL(2, 13). This module provides:

* the standard generators of PGL(2, q) / PSL(2, q) / PGammaL(2, q) as
  permutations of the ``q + 1`` points of PG(1, q) (point ``q`` is infinity);
* orbit closure of a block set under a generator list;
* a search helper that scans base blocks for one whose orbit is a
  ``t``-design — the verification step makes the construction self-checking,
  so no unproven group-theoretic fact is load-bearing.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.designs.blocks import BlockDesign
from repro.designs.gf import GF, gf
from repro.util.combinatorics import binom

Permutation = Tuple[int, ...]


def _mobius_permutation(field: GF, a: int, b: int, c: int, d: int) -> Permutation:
    """Permutation of PG(1, q) induced by ``x -> (a x + b) / (c x + d)``.

    Requires ``ad - bc != 0``. Point index ``q`` is infinity.
    """
    q = field.q
    det = field.sub(field.mul(a, d), field.mul(b, c))
    if det == 0:
        raise ValueError("Mobius map needs nonzero determinant")
    image = []
    for x in range(q):
        numerator = field.add(field.mul(a, x), b)
        denominator = field.add(field.mul(c, x), d)
        if denominator == 0:
            image.append(q)
        else:
            image.append(field.div(numerator, denominator))
    # Image of infinity is a/c (or infinity when c == 0).
    image.append(q if c == 0 else field.div(a, c))
    return tuple(image)


def pgl2_generators(q: int) -> List[Permutation]:
    """Generators of PGL(2, q) on PG(1, q): translation, scaling, inversion."""
    field = gf(q)
    translation = _mobius_permutation(field, 1, 1, 0, 1)
    scaling = _mobius_permutation(field, field.primitive_element, 0, 0, 1)
    inversion = _mobius_permutation(field, 0, 1, 1, 0)
    return [translation, scaling, inversion]


def psl2_generators(q: int) -> List[Permutation]:
    """Generators of PSL(2, q): scale by a *square* of the primitive element.

    PSL(2, q) = maps with square determinant. ``x -> g^2 x`` together with
    the translation and the determinant-(-1) inversion composed suitably
    generate it; we use the standard set {x+1, g^2 x, -1/x}.
    """
    field = gf(q)
    translation = _mobius_permutation(field, 1, 1, 0, 1)
    square = field.mul(field.primitive_element, field.primitive_element)
    scaling = _mobius_permutation(field, square, 0, 0, 1)
    neg_inversion = _mobius_permutation(field, 0, field.neg(1), 1, 0)
    return [translation, scaling, neg_inversion]


def frobenius_permutation(q: int) -> Permutation:
    """The field automorphism ``x -> x^p`` extended to PG(1, q) (fixes infinity)."""
    field = gf(q)
    image = [field.pow(x, field.p) for x in range(q)] + [q]
    return tuple(image)


def pgammal2_generators(q: int) -> List[Permutation]:
    """Generators of PGammaL(2, q) = PGL(2, q) extended by Frobenius."""
    return pgl2_generators(q) + [frobenius_permutation(q)]


def orbit_of_block(
    block: Iterable[int], generators: Sequence[Permutation]
) -> Set[FrozenSet[int]]:
    """Closure of one block under a generator set (BFS over images)."""
    start = frozenset(block)
    seen: Set[FrozenSet[int]] = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for perm in generators:
            image = frozenset(perm[p] for p in current)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def search_orbit_steiner(
    v: int,
    block_size: int,
    t: int,
    generators: Sequence[Permutation],
    name: str = "",
) -> Optional[BlockDesign]:
    """Scan base blocks for one whose group orbit is a Steiner system.

    Used for the small sporadic systems (S(3,4,10), S(3,4,14), S(5,6,12)):
    the candidate space ``C(v, block_size)`` is tiny, the orbit closure is
    cheap, and full verification guards correctness. Returns ``None`` when
    no base block works (caller falls back to exact-cover search).
    """
    target_blocks = binom(v, t) // binom(block_size, t)
    if binom(v, t) % binom(block_size, t):
        return None
    tried: Set[FrozenSet[int]] = set()
    for candidate in combinations(range(v), block_size):
        block = frozenset(candidate)
        if block in tried:
            continue
        orbit = orbit_of_block(block, generators)
        tried.update(orbit)
        if len(orbit) != target_blocks:
            continue
        design = BlockDesign.from_blocks(
            v, [tuple(sorted(b)) for b in orbit], name=name
        )
        if design.is_design(t, 1):
            return design
    return None
