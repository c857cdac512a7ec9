"""t-packing builders: the bridge from designs to Simple(x, λ) placements.

A ``Simple(x, λ)`` placement is a ``(x+1)-(n, r, λ)`` packing (Definition 2
/ Lemma 1 of the paper). This module assembles packings of a requested size
from catalogued designs by the paper's two mechanisms:

* **Observation 1** — λ/μ-fold copying of a ``(x+1)-(n_x, r, μ)`` design;
* **Observation 2** — disjoint unions over node chunks when no single
  subsystem order fits ``n`` well;

plus a seeded sample of distinct r-subsets for the trivial ``x + 1 = r``
stratum.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, List, Sequence

from repro.designs.blocks import Block, BlockDesign, DesignError
from repro.designs.transforms import all_subsets_blocks
from repro.util.combinatorics import binom


def chunked_packing_blocks(
    chunk_designs: Sequence[BlockDesign],
    num_blocks: int,
    total_points: int,
) -> List[Block]:
    """Observation 2: interleave copies of per-chunk designs on disjoint points.

    Chunk ``i`` occupies points ``offset_i .. offset_i + v_i - 1``. Blocks
    are consumed round-robin across chunks so that replica load grows evenly
    across the whole node set rather than filling one chunk first.
    """
    if not chunk_designs:
        raise DesignError("chunked packing needs at least one chunk")
    offsets = []
    offset = 0
    for design in chunk_designs:
        offsets.append(offset)
        offset += design.v
    if offset > total_points:
        raise DesignError(
            f"chunks span {offset} points but only {total_points} available"
        )
    # Split the demand across chunks proportionally to capacity, so the
    # copy multiplier (and hence λ) grows in lockstep on every chunk.
    capacity = sum(d.num_blocks for d in chunk_designs)
    quotas = [(d.num_blocks * num_blocks) // capacity for d in chunk_designs]
    shortfall = num_blocks - sum(quotas)
    for i in range(shortfall):
        quotas[i % len(quotas)] += 1
    streams: List[Iterator[Block]] = [
        _shifted_cycle(design, offsets[i]) for i, design in enumerate(chunk_designs)
    ]
    per_chunk: List[List[Block]] = [
        list(islice(stream, quota)) for stream, quota in zip(streams, quotas)
    ]
    # Interleave chunk outputs so any b-prefix stays balanced across chunks.
    blocks: List[Block] = []
    indices = [0] * len(per_chunk)
    while len(blocks) < num_blocks:
        for i, chunk_blocks in enumerate(per_chunk):
            if indices[i] < len(chunk_blocks):
                blocks.append(chunk_blocks[indices[i]])
                indices[i] += 1
            if len(blocks) == num_blocks:
                break
    return blocks


def _shifted_cycle(design: BlockDesign, offset: int) -> Iterator[Block]:
    while True:
        for block in design.blocks:
            yield tuple(point + offset for point in block)


def shuffled_design_rows(
    design: BlockDesign, num_blocks: int, seed: int = 0
):
    """Copies of a design with block order shuffled *within* each copy, flat.

    The first ``num_blocks`` blocks of ceil(num_blocks / b)-fold copies of
    a ``t-(v, r, μ)`` design form a ``t-(v, r, μ * copies)`` packing
    (Observation 1). Reordering blocks inside a copy leaves every coverage
    count unchanged, but a partial last copy now spreads its replica load
    across the whole point set instead of piling onto the
    lexicographically-early points. Deterministic under ``seed``.

    Shuffles block *indices*, then gathers rows from the design's cached
    int32 buffer — a vectorized copy under numpy for packings of
    :data:`~repro.util.lazynumpy.BULK_MIN_B` blocks or more, and zero
    per-block tuple allocation either way. Returns a flat row-major
    ``array('i')`` ready for ``Placement.from_arrays(validate=False)``.
    """
    if num_blocks < 0:
        raise ValueError(f"num_blocks must be >= 0, got {num_blocks}")
    from array import array

    from repro.util import lazynumpy
    from repro.util.rng import derive_rng

    base = design.rows_array()
    block_count = design.num_blocks
    r = design.block_size
    np = lazynumpy.for_bulk(num_blocks)
    matrix = (
        np.frombuffer(base, dtype=np.int32).reshape(block_count, r)
        if np is not None else None
    )
    rows = array("i")
    copy_index = 0
    while len(rows) < num_blocks * r:
        order = list(range(block_count))
        derive_rng(seed, "packing-copy", copy_index).shuffle(order)
        take = min(block_count, num_blocks - len(rows) // r)
        if matrix is not None:
            rows.frombytes(matrix[order[:take]].tobytes())
        else:
            for index in order[:take]:
                rows.extend(base[index * r:(index + 1) * r])
        copy_index += 1
    return rows


def sampled_distinct_subsets(
    v: int, r: int, count: int, seed: int = 0
) -> List[Block]:
    """``count`` distinct r-subsets of ``v`` points in a seeded random order.

    The load-balanced realization of the trivial (``x + 1 = r``) stratum:
    a lexicographic prefix would place every block on the first points,
    while a random sample spreads load evenly in expectation. Materializes
    and shuffles the full subset list when it is small; otherwise rejection
    sampling with a seen-set (O(count) memory, vanishing collision rate at
    the scales where this path triggers).
    """
    total = binom(v, r)
    if count > total:
        raise DesignError(
            f"only C({v},{r})={total} distinct {r}-subsets exist, "
            f"cannot provide {count}"
        )
    from repro.util.rng import derive_rng

    rng = derive_rng(seed, "trivial-sample", v, r)
    if total <= max(4 * count, 100_000):
        population = list(all_subsets_blocks(v, r))
        rng.shuffle(population)
        return population[:count]
    chosen: List[Block] = []
    seen = set()
    points = list(range(v))
    while len(chosen) < count:
        block = tuple(sorted(rng.sample(points, r)))
        if block not in seen:
            seen.add(block)
            chosen.append(block)
    return chosen
