"""Design transformations: derived designs and the trivial design.

The ``lambda``-fold copies of Observation 1 and the chunked unions of
Observation 2 are assembled directly as packings in
:mod:`repro.designs.packing`. This module holds the two transformations
the catalog needs:

* **derived** designs turn S(5,6,12) into the S(4,5,11) the catalog lists;
* the **trivial design** of all r-subsets covers the ``x + 1 = r`` case,
  where the paper notes the Steiner constraints are vacuously satisfied.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Iterator

from repro.designs.blocks import Block, BlockDesign, DesignError


def derived_design(design: BlockDesign, point: int) -> BlockDesign:
    """Derived design at ``point``: blocks through it, with it removed.

    The derived design of a t-(v, r, λ) design is a (t-1)-(v-1, r-1, λ)
    design. Points are relabeled to close the gap left by ``point``.
    """
    if not 0 <= point < design.v:
        raise ValueError(f"point {point} outside design on {design.v} points")

    def relabel(p: int) -> int:
        return p if p < point else p - 1

    blocks = [
        tuple(sorted(relabel(p) for p in block if p != point))
        for block in design.blocks
        if point in block
    ]
    if not blocks:
        raise DesignError(f"no blocks through point {point}")
    return BlockDesign.from_blocks(
        design.v - 1, blocks, name=f"derived({design.name or 'design'}@{point})"
    )


def all_subsets_blocks(v: int, r: int) -> Iterator[Block]:
    """Lazily enumerate all r-subsets of ``v`` points in lexicographic order.

    The trivial design for the ``x + 1 = r`` stratum. It is deliberately a
    generator: at the paper's scale (e.g. v = 257, r = 5) the full design
    has ~2.8 billion blocks, but placements only ever consume a prefix.
    """
    if not 1 <= r <= v:
        raise ValueError(f"need 1 <= r <= v, got r={r}, v={v}")
    return combinations(range(v), r)


def trivial_design_prefix(v: int, r: int, num_blocks: int) -> BlockDesign:
    """The first ``num_blocks`` r-subsets as a concrete design object."""
    blocks = list(islice(all_subsets_blocks(v, r), num_blocks))
    if len(blocks) < num_blocks:
        raise DesignError(
            f"only C({v},{r})={len(blocks)} distinct {r}-subsets exist, "
            f"cannot provide {num_blocks}"
        )
    return BlockDesign.from_blocks(v, blocks, name=f"trivial({v},{r})[:{num_blocks}]")
