"""Parameter selection: choosing (n_x, mu_x) subsystems (paper Sec. III-C).

A ``Simple(x, lambda)`` placement on ``n`` nodes is realized from a
``(x+1)-(n_x, r, mu_x)`` design on ``n_x <= n`` nodes, copied
``lambda / mu_x`` times (Observation 1), possibly over several disjoint
node chunks (Observation 2). This module selects those subsystems from the
existence catalog and computes the *capacity gap* the paper plots in
Figs. 5–6: the fraction of ideal Lemma-1 capacity lost by having to use
concrete systems on ``n_x < n`` points.

Sweeps over ``n`` ask the catalog the same questions for every ``n``, so
each ``(r, t, tier, max_mu)`` stratum keeps one ascending table of its
admissible orders, grown on demand to the largest ``n`` asked so far;
every query reads the table's ``v <= n`` part instead of probing again.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.designs.catalog import Existence, min_lambda
from repro.util.combinatorics import binom, lcm_many


@dataclass(frozen=True)
class Chunk:
    """One node chunk: an ``(x+1)-(nx, r, mu)`` design lives on ``nx`` nodes."""

    nx: int
    mu: int


@dataclass(frozen=True)
class Subsystem:
    """The concrete realization plan for one Simple(x, ·) stratum."""

    r: int
    x: int
    chunks: Tuple[Chunk, ...]
    tier: Existence

    def __post_init__(self) -> None:
        if not self.chunks:
            raise ValueError("a subsystem needs at least one chunk")
        t = self.x + 1
        for chunk in self.chunks:
            step = chunk.mu * binom(chunk.nx, t)
            if step % binom(self.r, t):
                raise ValueError(
                    f"mu*C({chunk.nx},{t})/C({self.r},{t}) not integral for "
                    f"chunk {chunk}"
                )

    @property
    def t(self) -> int:
        return self.x + 1

    @property
    def mu(self) -> int:
        """The composite multiplier: lcm of chunk multipliers (Observation 2)."""
        return lcm_many(chunk.mu for chunk in self.chunks)

    @property
    def total_nodes(self) -> int:
        return sum(chunk.nx for chunk in self.chunks)

    @property
    def unit_capacity(self) -> int:
        """Objects accommodated per lambda step of ``mu``.

        With lambda = d * mu, each chunk holds ``lambda * C(nx,t)/C(r,t)``
        objects, so one step contributes ``mu * sum_i C(nx_i,t)/C(r,t)``.
        """
        mu = self.mu
        t = self.t
        total = 0
        for chunk in self.chunks:
            total += (mu * binom(chunk.nx, t)) // binom(self.r, t)
        return total

    def capacity(self, lam: int) -> int:
        """Objects accommodated by Simple(x, lam); lam must be a mu multiple."""
        if lam % self.mu:
            raise ValueError(f"lambda={lam} is not a multiple of mu={self.mu}")
        return (lam // self.mu) * self.unit_capacity

    def minimal_lambda(self, b: int) -> int:
        """Eqn. 1: smallest mu-multiple lambda whose capacity covers ``b``."""
        if b < 1:
            raise ValueError(f"need b >= 1, got {b}")
        unit = self.unit_capacity
        steps = -(-b // unit)
        return steps * self.mu


def select_subsystem(
    n: int,
    r: int,
    x: int,
    tier: Existence = Existence.KNOWN,
    max_mu: int = 1,
    max_chunks: int = 1,
) -> Optional[Subsystem]:
    """The best subsystem for a Simple(x, ·) stratum on ``n`` nodes.

    Follows the paper's selection: the trivial design when ``x + 1 = r``,
    the largest partitionable prefix when ``x = 0``, and otherwise the
    best chunk decomposition of catalogued orders (maximizing capacity).
    Returns ``None`` when nothing at the requested tier fits.
    """
    if not 0 <= x < r:
        return None
    if r > n:
        return None
    t = x + 1
    if t == r:
        return Subsystem(r=r, x=x, chunks=(Chunk(nx=n, mu=1),), tier=Existence.CONSTRUCTIBLE)
    if x == 0:
        nx = r * (n // r)
        if nx == 0:
            return None
        return Subsystem(r=r, x=x, chunks=(Chunk(nx=nx, mu=1),), tier=Existence.CONSTRUCTIBLE)
    chunks = best_chunk_decomposition(n, r, t, tier=tier, max_mu=max_mu, max_chunks=max_chunks)
    if not chunks:
        return None
    return Subsystem(r=r, x=x, chunks=tuple(chunks), tier=tier)


class _OrderTable:
    """One stratum's admissible orders ``v`` with their least ``mu``, ascending."""

    def __init__(self, r: int, t: int, tier: Existence, max_mu: int) -> None:
        self.r, self.t, self.tier, self.max_mu = r, t, tier, max_mu
        self.top = r - 1  # every v <= top has been probed
        self.vs: List[int] = []
        self.mus: List[int] = []
        self.gains: List[int] = []  # C(v, t), the capacity a chunk adds

    def grow(self, n: int) -> None:
        r, t = self.r, self.t
        for v in range(self.top + 1, n + 1):
            mu = min_lambda(v, r, t, self.max_mu, tier=self.tier)
            if mu is not None:
                self.vs.append(v)
                self.mus.append(mu)
                self.gains.append(binom(v, t))
        self.top = max(self.top, n)


_ORDER_TABLES: Dict[Tuple[int, int, Existence, int], _OrderTable] = {}


def _order_table(r: int, t: int, tier: Existence, max_mu: int, n: int) -> _OrderTable:
    """The stratum's table, grown to cover every ``v <= n``."""
    key = (r, t, tier, max_mu)
    table = _ORDER_TABLES.get(key)
    if table is None:
        table = _ORDER_TABLES[key] = _OrderTable(r, t, tier, max_mu)
    table.grow(n)
    return table


def _admissible_orders(
    r: int, t: int, max_v: int, tier: Existence, max_mu: int
) -> Tuple[Tuple[int, int], ...]:
    """(v, mu) pairs admitting a ``t-(v, r, mu)`` design, mu <= max_mu, descending v."""
    table = _order_table(r, t, tier, max_mu, max_v)
    count = bisect_right(table.vs, max_v)
    return tuple(zip(table.vs[:count], table.mus[:count]))[::-1]


def best_chunk_decomposition(
    n: int,
    r: int,
    t: int,
    tier: Existence = Existence.KNOWN,
    max_mu: int = 1,
    max_chunks: int = 1,
) -> List[Chunk]:
    """Up to ``max_chunks`` catalogued orders, total <= n, maximizing capacity.

    Capacity of a decomposition is proportional to ``sum_i C(v_i, t)`` (per
    unit lambda), which is what the search maximizes. Branch and bound over
    orders in descending size: since ``C(v, t)`` is increasing in ``v``, the
    remaining-chunk bound ``slots * C(v_current, t)`` prunes aggressively.
    Each level starts at the largest order that fits the remaining budget;
    ties keep the first decomposition found.
    """
    table = _order_table(r, t, tier, max_mu, n)
    vs, gains = table.vs, table.gains
    best_value = 0
    best_combo: List[int] = []
    combo: List[int] = []  # table indices, non-increasing

    def recurse(budget: int, slots: int, top: int, value: int) -> None:
        nonlocal best_value, best_combo
        if value > best_value:
            best_value = value
            best_combo = list(combo)
        if slots == 0:
            return
        for i in range(min(top, bisect_right(vs, budget) - 1), -1, -1):
            gain = gains[i]
            if value + gain * slots <= best_value:
                break  # orders are descending; nothing later can catch up
            combo.append(i)
            recurse(budget - vs[i], slots - 1, i, value + gain)
            combo.pop()

    recurse(n, max_chunks, len(vs) - 1, 0)
    return [Chunk(nx=vs[i], mu=table.mus[i]) for i in best_combo]


def capacity_gap(
    n: int,
    r: int,
    x: int,
    tier: Existence = Existence.KNOWN,
    max_mu: int = 1,
    max_chunks: int = 3,
) -> float:
    """The paper's capacity gap: 1 - achievable / ideal (0 is perfect, 1 is none).

    Matches Figs. 5-6: ideal is ``floor(C(n,t)/C(r,t))`` with a single ideal
    system on all ``n`` nodes; achievable comes from the best decomposition
    into at most ``max_chunks`` catalogued systems.
    """
    t = x + 1
    if t == r:
        return 0.0
    if x == 0:
        achievable = r * (n // r)  # points covered by the partition
        return 1.0 - achievable / n if n else 1.0
    if n < t:
        return 1.0  # no t-subsets at all: nothing fits, and the ideal is 0
    chunks = best_chunk_decomposition(
        n, r, t, tier=tier, max_mu=max_mu, max_chunks=max_chunks
    )
    ideal = binom(n, t)
    achieved = sum(binom(chunk.nx, t) for chunk in chunks)
    return 1.0 - achieved / ideal


def select_combo_subsystems(
    n: int,
    r: int,
    s: int,
    tier: Existence = Existence.KNOWN,
    max_mu: int = 1,
    max_chunks: int = 1,
) -> Tuple[Optional[Subsystem], ...]:
    """One subsystem per stratum ``x in [s]`` for a Combo placement."""
    if not 1 <= s <= r:
        raise ValueError(f"need 1 <= s <= r, got s={s}, r={r}")
    return tuple(
        select_subsystem(n, r, x, tier=tier, max_mu=max_mu, max_chunks=max_chunks)
        for x in range(s)
    )
