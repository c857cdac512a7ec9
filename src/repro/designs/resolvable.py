"""Resolvable structures: 1-factorizations and partition designs.

Two places in the paper need these:

* ``Simple(0, λ)`` placements are 1-(n, r, λ) packings — with μ0 = 1 these
  are partitions of (a subset of) the nodes into replica groups, built here
  as :func:`partition_design`.
* The Hanani doubling construction for Steiner quadruple systems consumes a
  one-factorization of the complete graph K_v (v even), built here with the
  classical round-robin (circle) method.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.designs.blocks import BlockDesign

Edge = Tuple[int, int]


def one_factorization(v: int) -> List[List[Edge]]:
    """Partition the edges of K_v (v even) into ``v - 1`` perfect matchings.

    Round-robin construction: fix point ``v - 1``; in round ``h`` it is
    matched with ``h``, and the remaining points pair off symmetrically
    around ``h`` modulo ``v - 1``.
    """
    if v < 2 or v % 2:
        raise ValueError(f"one-factorization of K_v needs even v >= 2, got {v}")
    rounds: List[List[Edge]] = []
    m = v - 1
    for h in range(m):
        factor: List[Edge] = [tuple(sorted((m, h)))]
        for i in range(1, v // 2):
            a = (h + i) % m
            b = (h - i) % m
            factor.append(tuple(sorted((a, b))))
        rounds.append(factor)
    return rounds


def partition_design(v: int, r: int) -> BlockDesign:
    """Partition ``v`` points into ``v / r`` blocks: a ``1-(v, r, 1)`` design.

    This is the μ = 1 building block for ``Simple(0, λ)`` placements; it
    requires ``r | v`` (otherwise callers shrink to the largest multiple —
    the ``n0`` selection of the paper's Sec. III-C).
    """
    if r < 1:
        raise ValueError(f"block size must be >= 1, got {r}")
    if v % r:
        raise ValueError(f"partition design needs r | v, got v={v}, r={r}")
    blocks = [tuple(range(start, start + r)) for start in range(0, v, r)]
    return BlockDesign.from_blocks(v, blocks, name=f"partition {v}/{r}")


def pairs_design(v: int) -> BlockDesign:
    """All pairs of ``v`` points: the (unique) ``2-(v, 2, 1)`` design."""
    if v < 2:
        raise ValueError(f"pairs design needs v >= 2, got {v}")
    blocks = [(a, b) for a in range(v) for b in range(a + 1, v)]
    return BlockDesign.from_blocks(v, blocks, name=f"K_{v} edges")
