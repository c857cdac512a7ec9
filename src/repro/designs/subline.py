"""Subline designs ``S(3, q+1, q^d + 1)``: inversive planes and their relatives.

This is the paper's third infinite family (Sec. III-C): "x+1 = 3, r = q+1,
and nx = q^d + 1". The points are PG(1, q^d); the blocks are the images of
the standard subline ``PG(1, q) = GF(q) ∪ {∞}`` under the semilinear group
PGammaL(2, q^d). For ``d = 2`` this is the Miquelian inversive plane of
order ``q``. Any three points lie on exactly one such circle.

Instances used by the paper (all with q = 4, r = 5):

* d = 2 → S(3, 5, 17)
* d = 3 → S(3, 5, 65)   (``n2`` for ``n = 71``)
* d = 4 → S(3, 5, 257)  (``n2`` for ``n = 257``)

The construction is orbit closure plus full verification, so group-theoretic
facts (orbit size, stabilizer shape) are checked rather than assumed.
"""

from __future__ import annotations

from functools import lru_cache

from repro.designs.blocks import BlockDesign
from repro.designs.gf import gf
from repro.designs.group_orbit import orbit_of_block, pgammal2_generators
from repro.util.combinatorics import prime_power_decomposition


def subfield_points(big_q: int, small_q: int) -> list:
    """Elements of GF(small_q) inside GF(big_q): the fixed points of x -> x^q."""
    field = gf(big_q)
    return [x for x in field.elements() if field.pow(x, small_q) == x]


@lru_cache(maxsize=None)
def subline_design(q: int, d: int) -> BlockDesign:
    """The design S(3, q+1, q^d+1) of sublines of PG(1, q^d).

    Requires ``d >= 2`` and ``q`` a prime power. The result is verified to
    be a 3-design before being returned.
    """
    if d < 2:
        raise ValueError(f"subline design needs d >= 2, got {d}")
    if prime_power_decomposition(q) is None:
        raise ValueError(f"q must be a prime power, got {q}")
    big_q = q**d
    v = big_q + 1
    infinity = big_q
    base_block = frozenset(subfield_points(big_q, q) + [infinity])
    if len(base_block) != q + 1:
        raise AssertionError(
            f"standard subline has {len(base_block)} points, expected {q + 1}"
        )
    orbit = orbit_of_block(base_block, pgammal2_generators(big_q))
    design = BlockDesign.from_blocks(
        v, [tuple(sorted(block)) for block in orbit], name=f"S(3,{q + 1},{v}) [sublines]"
    )
    if not design.is_design(3, 1):
        raise AssertionError(
            f"subline orbit over PG(1,{big_q}) is not a 3-(v,{q + 1},1) design"
        )
    return design
