"""t-packing builders: the bridge from designs to Simple(x, λ) placements.

A ``Simple(x, λ)`` placement is a ``(x+1)-(n, r, λ)`` packing (Definition 2
/ Lemma 1 of the paper). This module assembles packings of a requested size
from catalogued designs by the paper's two mechanisms:

* **Observation 1** — λ/μ-fold copying of a ``(x+1)-(n_x, r, μ)`` design;
* **Observation 2** — disjoint unions over node chunks when no single
  subsystem order fits ``n`` well;

plus a greedy fallback packing for parameter sets with no catalogued
construction at all (useful for examples on arbitrary cluster sizes, never
required for the paper's own parameter choices).
"""

from __future__ import annotations

import random
from itertools import combinations, islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.designs.blocks import Block, BlockDesign, DesignError, packing_capacity
from repro.designs.transforms import all_subsets_blocks
from repro.util.combinatorics import binom, ceil_div


def packing_blocks_from_design(
    design: BlockDesign, num_blocks: int
) -> List[Block]:
    """First ``num_blocks`` blocks of ceil(num_blocks / b)-fold copies.

    With the base design a ``t-(v, r, μ)`` design, the result is a
    ``t-(v, r, μ * ceil(num_blocks / b))`` packing — and the multiplier is
    the minimal λ of Eqn. 1 when blocks are consumed copy by copy.
    """
    if num_blocks < 0:
        raise ValueError(f"num_blocks must be >= 0, got {num_blocks}")
    blocks: List[Block] = []
    while len(blocks) < num_blocks:
        take = min(design.num_blocks, num_blocks - len(blocks))
        blocks.extend(design.blocks[:take])
    return blocks


def copies_needed(design_blocks: int, num_blocks: int) -> int:
    """How many full copies cover ``num_blocks`` (the λ/μ of Observation 1)."""
    if design_blocks <= 0:
        raise ValueError("base design must have blocks")
    return max(1, ceil_div(num_blocks, design_blocks))


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


def trivial_packing_blocks(v: int, r: int, num_blocks: int) -> List[Block]:
    """Prefix of all r-subsets: an ``r-(v, r, 1)`` packing of any size <= C(v,r)."""
    if num_blocks > binom(v, r):
        raise DesignError(
            f"trivial packing on {v} points holds at most C({v},{r}) blocks"
        )
    return list(islice(all_subsets_blocks(v, r), num_blocks))


def shuffled_design_blocks(
    design: BlockDesign, num_blocks: int, seed: int = 0
) -> List[Block]:
    """Copies of a design with block order shuffled *within* each copy.

    Reordering blocks inside a copy leaves every coverage count unchanged,
    so the result is the same ``t-(v, r, mu * copies)`` packing as
    :func:`packing_blocks_from_design` — but a partial last copy now spreads
    its replica load across the whole point set instead of piling onto the
    lexicographically-early points. Deterministic under ``seed``.
    """
    if num_blocks < 0:
        raise ValueError(f"num_blocks must be >= 0, got {num_blocks}")
    from repro.util.rng import derive_rng

    blocks: List[Block] = []
    copy_index = 0
    while len(blocks) < num_blocks:
        order = list(design.blocks)
        derive_rng(seed, "packing-copy", copy_index).shuffle(order)
        take = min(len(order), num_blocks - len(blocks))
        blocks.extend(order[:take])
        copy_index += 1
    return blocks


def shuffled_design_rows(
    design: BlockDesign, num_blocks: int, seed: int = 0
):
    """Array-native :func:`shuffled_design_blocks`: the same packing, flat.

    Shuffles block *indices* with the same derived generators (an equal
    length list sees the identical permutation), then gathers rows from
    the design's cached int32 buffer — a vectorized copy under numpy for
    packings of :data:`~repro.util.lazynumpy.BULK_MIN_B` blocks or more,
    and zero per-block tuple allocation either way. Returns a flat row-major
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


def greedy_packing(
    v: int,
    r: int,
    t: int,
    lam: int,
    num_blocks: int,
    rng: Optional[random.Random] = None,
    max_rejects: int = 50_000,
    restarts: int = 3,
) -> List[Block]:
    """Greedy randomized ``t-(v, r, lam)`` packing of ``num_blocks`` blocks.

    Samples random r-subsets and keeps those that do not push any t-subset
    above ``lam``. This does not reach the Lemma-1 capacity in general, but
    for loads well below capacity it succeeds quickly and yields a valid
    packing for *any* ``v`` — the fallback when the catalog has nothing.
    Greedy choices can dead-end close to capacity, so a stalled attempt is
    retried from scratch up to ``restarts`` times before giving up.

    Raises :class:`DesignError` when ``num_blocks`` exceeds the Lemma-1
    capacity or every attempt stalls.
    """
    if num_blocks > packing_capacity(v, r, t, lam):
        raise DesignError(
            f"{num_blocks} blocks exceed the Lemma-1 capacity "
            f"{packing_capacity(v, r, t, lam)} of a {t}-({v},{r},{lam}) packing"
        )
    rng = rng or random.Random(0)
    population = list(range(v))
    best_attempt = 0
    for _attempt in range(restarts + 1):
        coverage: Dict[Tuple[int, ...], int] = {}
        blocks: List[Block] = []
        rejects = 0
        while len(blocks) < num_blocks:
            block = tuple(sorted(rng.sample(population, r)))
            subsets = list(combinations(block, t))
            if all(coverage.get(subset, 0) < lam for subset in subsets):
                for subset in subsets:
                    coverage[subset] = coverage.get(subset, 0) + 1
                blocks.append(block)
                rejects = 0
            else:
                rejects += 1
                if rejects > max_rejects:
                    break
        if len(blocks) == num_blocks:
            return blocks
        best_attempt = max(best_attempt, len(blocks))
    raise DesignError(
        f"greedy packing stalled at {best_attempt}/{num_blocks} blocks "
        f"after {restarts + 1} attempts"
    )
