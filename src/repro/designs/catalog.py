"""Existence catalog for Steiner systems ``t-(v, r, lambda)``.

The paper's parameter-selection machinery (Sec. III-C, Figs. 4–6) needs to
answer, for given ``r`` and ``x`` (with ``t = x + 1``): *which subsystem
orders ``n_x`` admit a design, and can we build one?* This module encodes
that knowledge with explicit provenance tiers:

* ``CONSTRUCTIBLE`` — :func:`build` returns actual blocks (verified
  constructions elsewhere in :mod:`repro.designs`);
* ``KNOWN`` — existence is a literature theorem (complete spectra by Hanani
  and Kirkman; sporadic lists from the design-theory handbooks the paper
  cites) but no constructor is wired up here;
* ``DIVISIBILITY`` — only the necessary divisibility conditions hold; used
  (and documented as optimistic) for the paper's Fig. 6 exploration of
  ``mu_x > 1``;
* ``NONE`` — divisibility fails, or nonexistence is a known theorem
  (e.g. S(4, 5, 17), Ostergard & Pottonen 2008 — the paper's [32]).

Keeping the tier explicit lets the analysis layer make the same distinction
the paper makes between "constructions of which we are aware" (Fig. 5) and
"parameter sets passing necessary conditions" (Fig. 6).
"""

from __future__ import annotations

from enum import IntEnum
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from repro.designs.affine import affine_geometry_design
from repro.designs.blocks import BlockDesign, DesignError, divisibility_conditions_hold
from repro.designs.difference_family import (
    cyclic_2design,
    difference_family_constructible,
)
from repro.designs.group_orbit import psl2_generators, search_orbit_steiner
from repro.designs.projective import projective_geometry_design, projective_space_size
from repro.designs.quadruple import sqs_constructible, sqs_exists, steiner_quadruple_system
from repro.designs.resolvable import pairs_design, partition_design
from repro.designs.search import search_steiner_system
from repro.designs.steiner_triple import steiner_triple_system, sts_exists
from repro.designs.subline import subline_design
from repro.designs.transforms import derived_design, trivial_design_prefix
from repro.designs.unital import hermitian_unital
from repro.util.combinatorics import binom, prime_power_decomposition


class Existence(IntEnum):
    """Provenance tier for a parameter set, ordered by strength."""

    NONE = 0
    DIVISIBILITY = 1
    KNOWN = 2
    CONSTRUCTIBLE = 3


# Known nonexistence results beyond divisibility.
_KNOWN_NONEXISTENT: Dict[Tuple[int, int], Tuple[int, ...]] = {
    # S(4, 5, 17) does not exist [Ostergard & Pottonen 2008; paper ref 32].
    (4, 5): (17,),
}

# Sporadic known orders for spectra that are not completely determined.
# S(3,5,v): the q = 4 subline family 4^d + 1 plus the Hanani-Hartman-Kramer
# order 26 (paper ref 20). S(4,5,v): the derived S(5,6,v+1) list (paper
# refs 13, 32 discuss this range).
_SPORADIC_KNOWN: Dict[Tuple[int, int], Tuple[int, ...]] = {
    (3, 5): (17, 26, 65, 257, 1025),
    (4, 5): (11, 23, 47, 83, 107, 131, 167, 243),
}

_DLX_SEARCH_LIMIT = 20  # max v for exact-cover fallback construction
_DLX_NODE_BUDGET = 4_000_000
# Max v for the cyclic difference-family probe: the range of the
# checked-in base-block table in difference_family.py, so a probe is a
# table lookup. Above it the catalog stops claiming constructibility
# rather than run the backtracking search.
_DIFFERENCE_FAMILY_LIMIT = 64


@lru_cache(maxsize=None)
def existence(v: int, r: int, t: int, lam: int = 1) -> Existence:
    """Strongest provenance tier for a ``t-(v, r, lam)`` design.

    Memoized: it is a pure function of four ints, and one process asks
    about at most a few thousand distinct keys.
    """
    if not 1 <= t <= r <= v or lam < 1:
        return Existence.NONE
    if not divisibility_conditions_hold(v, r, t, lam):
        return Existence.NONE
    if v in _KNOWN_NONEXISTENT.get((t, r), ()) and lam == 1:
        return Existence.NONE
    base = _unit_lambda_existence(v, r, t)
    if lam == 1:
        return base
    # lam > 1: fold copies of the unit-lambda system realize any multiple;
    # other multiplicities are only divisibility-supported here.
    if base >= Existence.KNOWN:
        return base
    complete_lam = binom(v - t, r - t)
    if complete_lam and lam % complete_lam == 0:
        return Existence.CONSTRUCTIBLE  # folds of the trivial complete design
    return Existence.DIVISIBILITY


def _unit_lambda_existence(v: int, r: int, t: int) -> Existence:
    if t == r:
        return Existence.CONSTRUCTIBLE  # all r-subsets (lazy prefix)
    if t == 1:
        return Existence.CONSTRUCTIBLE if v % r == 0 else Existence.NONE
    if t == 2 and r == 2:
        return Existence.CONSTRUCTIBLE
    if t == 2 and r == 3:
        return Existence.CONSTRUCTIBLE if sts_exists(v) else Existence.NONE
    if t == 2 and r in (4, 5):
        # Hanani: spectra are complete (v = 1, 4 mod 12 for r=4;
        # v = 1, 5 mod 20 for r=5).
        if not divisibility_conditions_hold(v, r, 2, 1):
            return Existence.NONE
        if _geometric_2design_constructible(v, r):
            return Existence.CONSTRUCTIBLE
        if v <= _DLX_SEARCH_LIMIT:
            return Existence.CONSTRUCTIBLE
        if v <= _DIFFERENCE_FAMILY_LIMIT and difference_family_constructible(v, r):
            return Existence.CONSTRUCTIBLE
        return Existence.KNOWN
    if t == 3 and r == 4:
        if not sqs_exists(v):
            return Existence.NONE
        return Existence.CONSTRUCTIBLE if sqs_constructible(v) else Existence.KNOWN
    if (t, r) in _SPORADIC_KNOWN:
        if v in _constructible_sporadic(t, r):
            return Existence.CONSTRUCTIBLE
        if v in _SPORADIC_KNOWN[(t, r)]:
            return Existence.KNOWN
        return Existence.DIVISIBILITY
    return Existence.DIVISIBILITY


def _geometric_2design_constructible(v: int, r: int) -> bool:
    """Is there a PG/AG/unital construction of a 2-(v, r, 1) design?"""
    # Lines of AG(d, q) with q = r: v = r^d.
    if prime_power_decomposition(r) is not None:
        size = r * r
        while size <= v:
            if size == v:
                return True
            size *= r
    # Lines of PG(d, q) with q = r - 1: v = (q^{d+1} - 1)/(q - 1).
    q = r - 1
    if q >= 2 and prime_power_decomposition(q) is not None:
        d = 2
        while projective_space_size(d, q) <= v:
            if projective_space_size(d, q) == v:
                return True
            d += 1
    # Hermitian unital H(q) with q = r - 1: v = q^3 + 1.
    if q >= 2 and prime_power_decomposition(q) is not None and v == q**3 + 1:
        return True
    return False


def _constructible_sporadic(t: int, r: int) -> Tuple[int, ...]:
    if (t, r) == (3, 5):
        return (17, 65, 257)  # subline designs, q = 4, d = 2..4
    if (t, r) == (4, 5):
        return (11,)  # derived from the orbit-searched S(5, 6, 12)
    return ()


@lru_cache(maxsize=None)
def small_witt_design() -> BlockDesign:
    """S(5, 6, 12), found as a PSL(2, 11) orbit on PG(1, 11) and verified."""
    design = search_orbit_steiner(
        12, block_size=6, t=5, generators=psl2_generators(11), name="S(5,6,12)"
    )
    if design is None:
        raise DesignError("no PSL(2,11)-invariant S(5,6,12) found")
    return design


def build(v: int, r: int, t: int, trivial_prefix: Optional[int] = None) -> BlockDesign:
    """Construct a ``t-(v, r, 1)`` design (unit lambda).

    ``trivial_prefix`` bounds the number of blocks materialized for the
    ``t == r`` trivial design, whose full block set is astronomically large
    at the paper's scales; other constructions ignore it.

    Raises :class:`DesignError` when the parameter set is not at the
    CONSTRUCTIBLE tier.
    """
    tier = existence(v, r, t)
    if tier != Existence.CONSTRUCTIBLE:
        raise DesignError(
            f"{t}-({v},{r},1) is not constructible here (tier: {tier.name})"
        )
    if t == r:
        limit = trivial_prefix if trivial_prefix is not None else binom(v, r)
        if limit > 5_000_000:
            raise DesignError(
                f"refusing to materialize {limit} blocks of the trivial design; "
                f"pass trivial_prefix or use all_subsets_blocks()"
            )
        return trivial_design_prefix(v, r, limit)
    return _build_nontrivial(v, r, t)


@lru_cache(maxsize=64)
def _build_nontrivial(v: int, r: int, t: int) -> BlockDesign:
    """Memoized materialization of the algebraic constructions.

    Designs are immutable, so repeated placements over one parameter set
    (strategy sweeps, the adaptive simulator's per-stratum streams) share
    a single instance — and with it the cached flat ``rows_array`` the
    array-native placement builders gather from. Trivial designs are
    excluded (their prefix parameter makes instances unbounded in size).
    """
    return _resolve_builder(v, r, t)()


def _resolve_builder(v: int, r: int, t: int) -> Callable[[], BlockDesign]:
    if t == 1:
        return lambda: partition_design(v, r)
    if t == 2 and r == 2:
        return lambda: pairs_design(v)
    if t == 2 and r == 3:
        return lambda: steiner_triple_system(v)
    if t == 2 and r in (4, 5):
        return lambda: _build_2design(v, r)
    if t == 3 and r == 4:
        return lambda: steiner_quadruple_system(v)
    if (t, r) == (3, 5):
        d = _subline_dimension(v)
        return lambda: subline_design(4, d)
    if (t, r) == (4, 5) and v == 11:
        return lambda: derived_design(small_witt_design(), 0)
    raise DesignError(f"no builder for {t}-({v},{r},1)")


def _subline_dimension(v: int) -> int:
    d = 2
    while 4**d + 1 < v:
        d += 1
    if 4**d + 1 != v:
        raise DesignError(f"{v} is not of the form 4^d + 1")
    return d


def _build_2design(v: int, r: int) -> BlockDesign:
    # Affine lines (needs r to be a prime power).
    if prime_power_decomposition(r) is not None:
        size = r * r
        d = 2
        while size <= v:
            if size == v:
                return affine_geometry_design(d, r)
            size *= r
            d += 1
    # Projective lines.
    q = r - 1
    if q >= 2 and prime_power_decomposition(q) is not None:
        d = 2
        while projective_space_size(d, q) <= v:
            if projective_space_size(d, q) == v:
                return projective_geometry_design(d, q)
            d += 1
        if v == q**3 + 1:
            return hermitian_unital(q)
    # Cyclic designs from difference families (e.g. 2-(37,4,1), 2-(41,5,1)).
    if v <= _DIFFERENCE_FAMILY_LIMIT and difference_family_constructible(v, r):
        return cyclic_2design(v, r)
    # Exact-cover fallback for small admissible orders.
    if v <= _DLX_SEARCH_LIMIT:
        design = search_steiner_system(v, r, 2, max_nodes=_DLX_NODE_BUDGET)
        if design is not None:
            return design
    raise DesignError(f"no construction available for 2-({v},{r},1)")


def steiner_orders(
    r: int, t: int, max_v: int, tier: Existence = Existence.KNOWN
) -> List[int]:
    """All orders ``v <= max_v`` whose existence tier is at least ``tier``."""
    return [v for v in range(t, max_v + 1) if existence(v, r, t) >= tier]


def largest_order(
    n: int, r: int, t: int, tier: Existence = Existence.KNOWN
) -> Optional[int]:
    """Largest ``v <= n`` at tier >= ``tier`` (the paper's ``n_x`` choice)."""
    for v in range(n, t - 1, -1):
        if existence(v, r, t) >= tier:
            return v
    return None


def min_lambda(
    v: int, r: int, t: int, max_lam: int, tier: Existence = Existence.KNOWN
) -> Optional[int]:
    """Smallest ``lambda <= max_lam`` whose tier is at least ``tier``."""
    for lam in range(1, max_lam + 1):
        if existence(v, r, t, lam) >= tier:
            return lam
    return None
