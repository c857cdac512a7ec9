"""Cyclic difference families: ``2-(v, r, 1)`` designs from base blocks.

A ``(v, r, 1)`` difference family over Z_v is a collection of ``t`` base
blocks of size ``r`` whose pairwise differences cover every nonzero residue
exactly once (so ``t * r * (r - 1) = v - 1``). Developing each base block
through all ``v`` translations yields a cyclic ``2-(v, r, 1)`` design.

This widens the constructible slice of the catalog beyond the geometric
families: e.g. ``2-(37, 4, 1)`` (v = 1 mod 12) and ``2-(41, 5, 1)``
(v = 1 mod 20) come from difference families. The catalog's probes read a
checked-in table of base blocks (:data:`_BASE_BLOCKS`), so no process pays
the backtracking search; every table entry is developed and verified as a
design before it is used. :func:`find_difference_family` is the search
that generated the table, and the test suite regenerates the table from it
and compares. Orders outside the table still fall back to the search.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from repro.designs.blocks import Block, BlockDesign, DesignError

_DEFAULT_BUDGET = 500_000

# What find_difference_family(v, r) returns for every DF-admissible (v, r)
# with r in {4, 5} and v <= 64 (the catalog's probe limit); None where its
# search finds no family. Regenerate with find_difference_family when
# widening the range.
_BASE_BLOCKS: Dict[Tuple[int, int], Optional[Tuple[Block, ...]]] = {
    (13, 4): ((0, 1, 3, 9),),
    (25, 4): None,
    (37, 4): ((0, 1, 3, 24), (0, 4, 9, 15), (0, 7, 17, 25)),
    (49, 4): ((0, 1, 3, 8), (0, 4, 18, 29), (0, 6, 21, 33), (0, 9, 19, 32)),
    (61, 4): (
        (0, 1, 3, 7), (0, 5, 13, 34), (0, 9, 26, 42), (0, 10, 24, 46),
        (0, 11, 23, 41),
    ),
    (21, 5): ((0, 1, 4, 14, 16),),
    (41, 5): ((0, 1, 4, 11, 29), (0, 2, 8, 17, 22)),
    (61, 5): ((0, 1, 3, 13, 34), (0, 4, 9, 23, 45), (0, 6, 17, 24, 32)),
}


def difference_family_admissible(v: int, r: int) -> bool:
    """Necessary condition for a cyclic DF over Z_v: r(r-1) divides v-1.

    (Each of the ``t`` base blocks contributes ``r (r - 1)`` ordered
    differences and every nonzero residue must appear exactly once.)
    """
    return v > r >= 2 and (v - 1) % (r * (r - 1)) == 0


@lru_cache(maxsize=None)
def find_difference_family(
    v: int, r: int, max_nodes: int = _DEFAULT_BUDGET
) -> Optional[Tuple[Block, ...]]:
    """Search for a ``(v, r, 1)`` difference family; ``None`` if none found.

    Backtracking over base blocks normalized to contain 0 with ascending
    elements; the difference set is tracked incrementally, and blocks are
    ordered by their second element to break permutation symmetry. The
    search is exact up to ``max_nodes`` expansions — exceeding the budget
    also returns ``None`` (treated as "not constructible here", never as
    nonexistence).
    """
    if not difference_family_admissible(v, r):
        return None
    num_blocks = (v - 1) // (r * (r - 1))
    used: Set[int] = set()
    blocks: List[List[int]] = []
    budget = [max_nodes]

    def pair_differences(block: List[int], element: int) -> Optional[List[int]]:
        """Residues consumed by adding ``element``; None on conflict."""
        consumed = []
        for other in block:
            d = (element - other) % v
            d_neg = (other - element) % v
            if d in used or d_neg in used or d == 0:
                return None
            consumed.extend((d, d_neg))
        # A pair at distance v/2 yields d == d_neg; consumed then holds
        # duplicates which would double-mark; reject (cannot be covered
        # exactly once by the +- convention unless counted twice).
        if len(set(consumed)) != len(consumed):
            return None
        return consumed

    def extend_block(block: List[int], start: int) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        if len(block) == r:
            blocks.append(list(block))
            if len(blocks) == num_blocks:
                return True
            # Next block: the smallest uncovered difference d must appear
            # as a pair in some remaining block; translating that block so
            # the pair is {0, d} and making it the next one loses no
            # generality (block order is free). The block's *other*
            # elements may lie anywhere in Z_v — they are enumerated
            # ascending from 1 for deduplication, with collisions against
            # 0/d rejected by the zero-difference check.
            smallest = min(d for d in range(1, v) if d not in used)
            consumed = pair_differences([0], smallest)
            if consumed is not None:
                used.update(consumed)
                if extend_block([0, smallest], 1):
                    return True
                used.difference_update(consumed)
            blocks.pop()
            return False
        for element in range(start, v):
            consumed = pair_differences(block, element)
            if consumed is None:
                continue
            used.update(consumed)
            block.append(element)
            if extend_block(block, element + 1):
                return True
            block.pop()
            used.difference_update(consumed)
        return False

    # First block: {0, d, ...} where d is the smallest difference overall.
    first_consumed = pair_differences([0], 1)
    found = False
    if first_consumed is not None:
        used.update(first_consumed)
        found = extend_block([0, 1], 2)
        if not found:
            used.difference_update(first_consumed)
    if not found:
        return None
    return tuple(tuple(sorted(block)) for block in blocks)


def develop_difference_family(
    v: int, base_blocks: Tuple[Block, ...]
) -> BlockDesign:
    """Develop base blocks through Z_v translations into the cyclic design."""
    if not base_blocks:
        raise DesignError("difference family needs at least one base block")
    blocks = [
        tuple(sorted((element + shift) % v for element in base))
        for base in base_blocks
        for shift in range(v)
    ]
    return BlockDesign.from_blocks(
        v, blocks, name=f"cyclic 2-({v},{len(base_blocks[0])},1)"
    )


def _base_blocks(v: int, r: int, max_nodes: int) -> Optional[Tuple[Block, ...]]:
    """The tabulated family where the table covers ``(v, r)``, else the search's."""
    if (v, r) in _BASE_BLOCKS:
        return _BASE_BLOCKS[(v, r)]
    return find_difference_family(v, r, max_nodes)


@lru_cache(maxsize=None)
def cyclic_2design(v: int, r: int, max_nodes: int = _DEFAULT_BUDGET) -> BlockDesign:
    """A cyclic ``2-(v, r, 1)`` design via difference family, fully verified.

    A tabulated ``(v, r)`` is developed from the table and ``max_nodes`` is
    unused; other orders are searched within ``max_nodes`` expansions.
    Raises :class:`DesignError` when no family is known or the developed
    blocks fail the ``2-(v, r, 1)`` check (a corrupt table entry).
    """
    family = _base_blocks(v, r, max_nodes)
    if family is None:
        raise DesignError(f"no ({v},{r},1) difference family found within budget")
    design = develop_difference_family(v, family)
    if not design.is_design(2, 1):
        raise DesignError(
            f"developed family {family} is not a 2-({v},{r},1) design"
        )
    return design


def difference_family_constructible(v: int, r: int) -> bool:
    """Existence-catalog probe: is there a ``(v, r, 1)`` family (table, else search)?

    The search roots the first block at {0, 1}. Multiplying a family by a
    unit of Z_v gives a family, so for prime v (every nonzero difference a
    unit) that loses no generality; for composite v the search may miss
    families, and the probe then conservatively reports not-constructible.
    """
    return difference_family_admissible(v, r) and (
        _base_blocks(v, r, _DEFAULT_BUDGET) is not None
    )
