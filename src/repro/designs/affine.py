"""Lines of affine space AG(d, q): the ``2-(q^d, q, 1)`` designs.

One of the paper's infinite families (Sec. III-C). The points of AG(d, q)
are the vectors of GF(q)^d; the lines are the cosets ``{a + t*b : t in
GF(q)}`` of the one-dimensional subspaces. Every pair of distinct points
lies on exactly one line, giving a Steiner system ``S(2, q, q^d)``:

* ``d = 2`` is the affine plane of order ``q`` (e.g. the 2-(25, 5, 1) the
  paper uses as ``n1`` for ``n = 31, r = 5``);
* ``d = 3, q = 4`` gives 2-(64, 4, 1) (our corrected ``n1`` for
  ``n = 71, r = 4``: the paper's Fig. 4 prints 70 there, but an S(2, 4, v)
  needs v = 1, 4 (mod 12); see :mod:`repro.analysis.fig4`).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.designs.blocks import BlockDesign
from repro.designs.gf import GF, gf

Vector = Tuple[int, ...]


def _all_vectors(field: GF, d: int) -> List[Vector]:
    """All of GF(q)^d in lexicographic order."""
    vectors: List[Vector] = [()]
    for _ in range(d):
        vectors = [v + (x,) for v in vectors for x in field.elements()]
    return vectors


def _normalized_directions(field: GF, d: int) -> List[Vector]:
    """One representative per 1-d subspace: first nonzero coordinate is 1."""
    directions = []
    for vector in _all_vectors(field, d):
        leading = next((x for x in vector if x != 0), None)
        if leading == 1:
            directions.append(vector)
    return directions


def affine_geometry_design(d: int, q: int) -> BlockDesign:
    """The design of lines of AG(d, q): a ``2-(q^d, q, 1)`` Steiner system."""
    if d < 2:
        raise ValueError(f"AG lines need dimension >= 2, got {d}")
    field = gf(q)
    points = _all_vectors(field, d)
    index = {point: i for i, point in enumerate(points)}
    blocks = []
    seen_pairs = set()
    for direction in _normalized_directions(field, d):
        # Each direction partitions the space into q^(d-1) parallel lines;
        # enumerate each line once via its smallest-index point.
        visited = [False] * len(points)
        for start_index, start in enumerate(points):
            if visited[start_index]:
                continue
            line = []
            for t in field.elements():
                point = tuple(
                    field.add(start[i], field.mul(t, direction[i])) for i in range(d)
                )
                point_index = index[point]
                visited[point_index] = True
                line.append(point_index)
            key = frozenset(line)
            if key not in seen_pairs:
                seen_pairs.add(key)
                blocks.append(tuple(sorted(line)))
    return BlockDesign.from_blocks(q**d, blocks, name=f"AG({d},{q}) lines")
