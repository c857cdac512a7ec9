"""Lines of projective space PG(d, q): ``2-((q^{d+1}-1)/(q-1), q+1, 1)`` designs.

The second geometric family from Sec. III-C of the paper. The points of
PG(d, q) are the one-dimensional subspaces of GF(q)^{d+1}; lines are the
two-dimensional subspaces, each containing ``q + 1`` points, and every pair
of points spans exactly one line. Notable instances used in the paper:

* PG(2, q) — the projective plane of order ``q`` (2-(q^2+q+1, q+1, 1));
* PG(4, 2), PG(7, 2) — Steiner triple systems STS(31), STS(255), the
  paper's ``n1`` entries for ``r = 3`` at ``n = 31`` and ``n = 257``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.designs.blocks import BlockDesign
from repro.designs.gf import GF, gf

Vector = Tuple[int, ...]


def projective_space_size(d: int, q: int) -> int:
    """Number of points of PG(d, q) = (q^{d+1} - 1) / (q - 1)."""
    return (q ** (d + 1) - 1) // (q - 1)


def _projective_points(field: GF, d: int) -> List[Vector]:
    """Normalized representatives (first nonzero coordinate 1) of PG(d, q)."""
    points: List[Vector] = []
    vectors: List[Vector] = [()]
    for _ in range(d + 1):
        vectors = [v + (x,) for v in vectors for x in field.elements()]
    for vector in vectors:
        leading = next((x for x in vector if x != 0), None)
        if leading == 1:
            points.append(vector)
    return points


def _normalize(field: GF, vector: Vector) -> Vector:
    leading = next((x for x in vector if x != 0), None)
    if leading is None:
        raise ValueError("zero vector has no projective normalization")
    inverse = field.inv(leading)
    return tuple(field.mul(inverse, x) for x in vector)


def projective_geometry_design(d: int, q: int) -> BlockDesign:
    """The design of lines of PG(d, q)."""
    if d < 2:
        raise ValueError(f"PG lines need dimension >= 2, got {d}")
    field = gf(q)
    points = _projective_points(field, d)
    index: Dict[Vector, int] = {point: i for i, point in enumerate(points)}
    v = len(points)
    blocks = []
    seen = set()
    for i in range(v):
        for j in range(i + 1, v):
            # The line through points i and j: {p_i} union {p_j + t*p_i}
            # (the first term is the alpha*p_i + 0*p_j combination).
            line = {i}
            for t in field.elements():
                combo = tuple(
                    field.add(points[j][c], field.mul(t, points[i][c]))
                    for c in range(d + 1)
                )
                line.add(index[_normalize(field, combo)])
            key = frozenset(line)
            if key not in seen:
                seen.add(key)
                blocks.append(tuple(sorted(line)))
    design = BlockDesign.from_blocks(v, blocks, name=f"PG({d},{q}) lines")
    return design
