"""Block design containers and verification.

A *block design* here is a multiset of ``r``-subsets ("blocks") of a point
set ``{0, ..., v-1}``. The paper's ``Simple(x, lambda)`` placement is exactly
a ``(x+1)-(n, r, lambda)`` *packing*: every ``(x+1)``-subset of points lies
in at most ``lambda`` blocks. A *design* ("maximum packing" / t-design) has
every ``t``-subset in exactly ``lambda`` blocks.

Verification is exhaustive over blocks (never over all ``C(v, t)`` subsets):
counting coverage from the block side costs ``O(#blocks * C(r, t))``, which
is what makes verifying e.g. STS(255) with 10 795 blocks instantaneous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.util.combinatorics import binom

Block = Tuple[int, ...]


class DesignError(ValueError):
    """Raised when a block set violates the structural rules it claims."""


@dataclass(frozen=True)
class BlockDesign:
    """An immutable collection of equal-size blocks over ``v`` points.

    Attributes:
        v: number of points; points are ``0..v-1``.
        block_size: common size ``r`` of every block.
        blocks: tuple of sorted point tuples. Duplicates are allowed (a
            ``lambda``-fold copy of a design is itself a valid packing with
            multiplier ``lambda``), so this is a multiset.
    """

    v: int
    block_size: int
    blocks: Tuple[Block, ...]
    name: str = field(default="", compare=False)

    @staticmethod
    def from_blocks(
        v: int, blocks: Iterable[Sequence[int]], name: str = ""
    ) -> "BlockDesign":
        """Validate and normalize raw blocks into a :class:`BlockDesign`."""
        normalized: List[Block] = []
        block_size = None
        for raw in blocks:
            block = tuple(sorted(raw))
            if len(set(block)) != len(block):
                raise DesignError(f"block {raw!r} repeats a point")
            if block and not (0 <= block[0] and block[-1] < v):
                raise DesignError(f"block {raw!r} has points outside [0, {v})")
            if block_size is None:
                block_size = len(block)
            elif len(block) != block_size:
                raise DesignError(
                    f"block {raw!r} has size {len(block)}, expected {block_size}"
                )
            normalized.append(block)
        if block_size is None:
            raise DesignError("a design needs at least one block")
        return BlockDesign(v=v, block_size=block_size, blocks=tuple(normalized), name=name)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def coverage_counts(self, t: int) -> Dict[Block, int]:
        """How many blocks contain each ``t``-subset that is covered at all."""
        if not 1 <= t <= self.block_size:
            raise ValueError(f"t must be in [1, {self.block_size}], got {t}")
        counts: Dict[Block, int] = {}
        for block in self.blocks:
            for subset in combinations(block, t):
                counts[subset] = counts.get(subset, 0) + 1
        return counts

    def max_coverage(self, t: int) -> int:
        """Largest number of blocks sharing any single ``t``-subset."""
        counts = self.coverage_counts(t)
        return max(counts.values()) if counts else 0

    def is_design(self, t: int, lam: int) -> bool:
        """True iff every ``t``-subset of the point set is in exactly ``lam`` blocks."""
        counts = self.coverage_counts(t)
        if len(counts) != binom(self.v, t):
            return False
        return all(count == lam for count in counts.values())

    def relabel(self, mapping: Sequence[int], v: int) -> "BlockDesign":
        """Map point ``i`` to ``mapping[i]`` into a space of ``v`` points."""
        if len(mapping) < self.v:
            raise DesignError(
                f"mapping covers {len(mapping)} points but design has {self.v}"
            )
        if any(not 0 <= m < v for m in mapping[: self.v]):
            raise DesignError("mapping sends points outside the target space")
        if len(set(mapping[: self.v])) != self.v:
            raise DesignError("mapping must be injective on design points")
        blocks = [tuple(sorted(mapping[p] for p in block)) for block in self.blocks]
        return BlockDesign.from_blocks(v, blocks, name=self.name)

    def rows_array(self):
        """Blocks flattened row-major into an int32 buffer (cached).

        The shape the array-native :class:`~repro.core.placement.Placement`
        consumes: blocks are already sorted, so the buffer can feed
        ``Placement.from_arrays(..., validate=False)`` and the row-gather
        fast paths in :mod:`repro.designs.packing` directly.
        """
        from array import array

        cached = self.__dict__.get("_rows_array")
        if cached is None:
            cached = array("i")
            for block in self.blocks:
                cached.extend(block)
            object.__setattr__(self, "_rows_array", cached)
        return cached

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"BlockDesign(v={self.v}, r={self.block_size}, "
            f"b={self.num_blocks}{label})"
        )


def divisibility_conditions_hold(v: int, r: int, t: int, lam: int) -> bool:
    """All of Fisher's divisibility conditions for a ``t-(v, r, lam)`` design.

    For each ``0 <= i <= t`` the count ``lam * C(v-i, t-i) / C(r-i, t-i)``
    (blocks through a fixed i-subset) must be an integer.
    """
    for i in range(t + 1):
        numerator = lam * binom(v - i, t - i)
        denominator = binom(r - i, t - i)
        if denominator == 0 or numerator % denominator:
            return False
    return True
