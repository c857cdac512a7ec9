"""Tests for subsystem selection and capacity-gap computation."""

import random
from itertools import combinations_with_replacement

import pytest

from repro.core import subsystems
from repro.core.subsystems import (
    Chunk,
    Subsystem,
    best_chunk_decomposition,
    capacity_gap,
    select_combo_subsystems,
    select_subsystem,
)
from repro.designs.catalog import Existence, existence
from repro.util.combinatorics import binom

# Non-trivial strata (1 <= x, t = x + 1 < r) for r in {3, 4, 5}.
_STRATA = [(r, t) for r in (3, 4, 5) for t in range(2, r)]


def _scanned_orders(r, t, max_v, tier, max_mu):
    """Descending (v, mu) by a direct scan of the unmemoized existence probe."""
    probe = existence.__wrapped__
    pairs = []
    for v in range(max_v, r - 1, -1):
        for mu in range(1, max_mu + 1):
            if probe(v, r, t, mu) >= tier:
                pairs.append((v, mu))
                break
    return tuple(pairs)


def _reference_chunks(n, r, t, tier, max_mu, max_chunks):
    """The descending-scan branch and bound as it stood before the order
    tables: pins the visit order and the strict-``>`` tie rule."""
    orders = _scanned_orders(r, t, n, tier, max_mu)
    best_value = 0
    best_combo = []

    def recurse(budget, slots, start, value, combo):
        nonlocal best_value, best_combo
        if value > best_value:
            best_value = value
            best_combo = list(combo)
        if slots == 0:
            return
        for i in range(start, len(orders)):
            v, mu = orders[i]
            if v > budget:
                continue
            gain = binom(v, t)
            if value + gain * slots <= best_value:
                break
            combo.append((v, mu))
            recurse(budget - v, slots - 1, i, value + gain, combo)
            combo.pop()

    recurse(n, max_chunks, 0, 0, [])
    return [Chunk(nx=v, mu=mu) for v, mu in best_combo]


class TestSubsystem:
    def test_unit_capacity_single_chunk(self):
        sub = Subsystem(r=3, x=1, chunks=(Chunk(69, 1),), tier=Existence.KNOWN)
        assert sub.unit_capacity == 782
        assert sub.mu == 1
        assert sub.capacity(2) == 1564
        assert sub.minimal_lambda(783) == 2

    def test_unit_capacity_multi_chunk(self):
        sub = Subsystem(
            r=3, x=1, chunks=(Chunk(9, 1), Chunk(7, 1)), tier=Existence.KNOWN
        )
        assert sub.total_nodes == 16
        assert sub.unit_capacity == 12 + 7

    def test_mu_lcm(self):
        sub = Subsystem(
            r=3, x=1, chunks=(Chunk(9, 2), Chunk(13, 3)), tier=Existence.KNOWN
        )
        assert sub.mu == 6

    def test_integrality_enforced(self):
        with pytest.raises(ValueError):
            Subsystem(r=3, x=1, chunks=(Chunk(8, 1),), tier=Existence.KNOWN)

    def test_capacity_requires_mu_multiple(self):
        sub = Subsystem(r=3, x=1, chunks=(Chunk(9, 2),), tier=Existence.KNOWN)
        with pytest.raises(ValueError):
            sub.capacity(3)

    def test_needs_chunks(self):
        with pytest.raises(ValueError):
            Subsystem(r=3, x=1, chunks=(), tier=Existence.KNOWN)


class TestSelectSubsystem:
    def test_trivial_stratum(self):
        sub = select_subsystem(71, 3, 2)
        assert sub.chunks == (Chunk(71, 1),)
        assert sub.unit_capacity == binom(71, 3)

    def test_partition_stratum(self):
        sub = select_subsystem(71, 3, 0)
        assert sub.chunks == (Chunk(69, 1),)  # 3 * floor(71/3)
        assert sub.unit_capacity == 23

    def test_intermediate_stratum_picks_largest(self):
        sub = select_subsystem(71, 3, 1, tier=Existence.KNOWN)
        assert sub.chunks == (Chunk(69, 1),)

    def test_none_when_nothing_fits(self):
        assert select_subsystem(4, 5, 1) is None
        assert select_subsystem(10, 5, 3, tier=Existence.KNOWN) is None

    def test_out_of_range_x(self):
        assert select_subsystem(10, 3, 3) is None

    def test_combo_selection_all_strata(self):
        subs = select_combo_subsystems(71, 5, 3, tier=Existence.KNOWN)
        assert len(subs) == 3
        assert subs[0].chunks[0].nx == 70  # 5 * 14
        assert subs[1].chunks[0].nx == 65  # unital H(4)
        assert subs[2].chunks[0].nx == 65  # S(3,5,65)

    def test_combo_validation(self):
        with pytest.raises(ValueError):
            select_combo_subsystems(10, 3, 4)


class TestChunkDecomposition:
    def test_single_chunk_when_exact(self):
        chunks = best_chunk_decomposition(69, 3, 2, max_chunks=3)
        assert chunks == [Chunk(69, 1)]

    def test_multi_chunk_beats_single_when_gappy(self):
        # For n = 10, r = 3, t = 2: orders are 3, 7, 9; two chunks (7 + 3)
        # beat the single 9 when capacity counts C(v,2).
        single = best_chunk_decomposition(10, 3, 2, max_chunks=1)
        multi = best_chunk_decomposition(10, 3, 2, max_chunks=2)
        cap = lambda chunks: sum(binom(c.nx, 2) for c in chunks)
        assert cap(multi) >= cap(single)

    def test_respects_budget(self):
        chunks = best_chunk_decomposition(100, 3, 2, max_chunks=3)
        assert sum(c.nx for c in chunks) <= 100

    def test_empty_when_no_orders(self):
        assert best_chunk_decomposition(10, 5, 4, tier=Existence.KNOWN) == []

    @pytest.mark.parametrize("max_mu", [1, 5])
    @pytest.mark.parametrize("tier", [Existence.KNOWN, Existence.DIVISIBILITY])
    @pytest.mark.parametrize("r,t", _STRATA)
    def test_matches_brute_force_and_reference(self, r, t, tier, max_mu):
        top = 40
        orders = _scanned_orders(r, t, top, tier, max_mu)
        for max_chunks in (1, 2, 3):
            # Every <= max_chunks multiset of orders, then the best value
            # per budget n as a running max over ascending totals.
            best_at = [0] * (top + 1)
            for size in range(1, max_chunks + 1):
                for combo in combinations_with_replacement(orders, size):
                    total = sum(v for v, _ in combo)
                    if total <= top:
                        value = sum(binom(v, t) for v, _ in combo)
                        best_at[total] = max(best_at[total], value)
            for n in range(1, top + 1):
                best_at[n] = max(best_at[n], best_at[n - 1])
            for n in range(top, -1, -1):
                chunks = best_chunk_decomposition(
                    n, r, t, tier=tier, max_mu=max_mu, max_chunks=max_chunks
                )
                assert sum(c.nx for c in chunks) <= n
                assert len(chunks) <= max_chunks
                assert sum(binom(c.nx, t) for c in chunks) == best_at[n], (n, max_chunks)
                assert chunks == _reference_chunks(
                    n, r, t, tier, max_mu, max_chunks
                ), (n, max_chunks)


class TestOrderTables:
    @pytest.mark.parametrize(
        "r,t,tier,max_mu",
        [
            (3, 2, Existence.KNOWN, 1),
            (4, 3, Existence.KNOWN, 1),
            (5, 2, Existence.CONSTRUCTIBLE, 1),
            (5, 3, Existence.DIVISIBILITY, 5),
            (5, 4, Existence.DIVISIBILITY, 10),
        ],
    )
    def test_query_order_does_not_matter(self, r, t, tier, max_mu):
        ns = list(range(0, 121))
        shuffled = list(ns)
        random.Random(7).shuffle(shuffled)
        expected = {n: _scanned_orders(r, t, n, tier, max_mu) for n in ns}
        for queries in (ns, ns[::-1], shuffled):
            subsystems._ORDER_TABLES.clear()
            existence.cache_clear()
            for n in queries:
                got = subsystems._admissible_orders(r, t, n, tier, max_mu)
                assert got == expected[n], n


class TestCapacityGap:
    def test_gap_zero_for_trivial(self):
        assert capacity_gap(100, 3, 2) == 0.0

    def test_gap_zero_at_exact_orders(self):
        assert capacity_gap(69, 3, 1) == pytest.approx(
            1 - binom(69, 2) / binom(69, 2)
        )

    def test_gap_positive_when_imperfect(self):
        gap = capacity_gap(70, 3, 1, max_chunks=1)
        assert gap == pytest.approx(1 - binom(69, 2) / binom(70, 2))

    def test_chunks_shrink_gap(self):
        one = capacity_gap(71, 5, 1, max_chunks=1)
        three = capacity_gap(71, 5, 1, max_chunks=3)
        assert three <= one

    def test_mu_relaxation_shrinks_gap(self):
        strict = capacity_gap(50, 5, 3, max_chunks=3, tier=Existence.KNOWN)
        relaxed = capacity_gap(
            50, 5, 3, max_chunks=3, max_mu=10, tier=Existence.DIVISIBILITY
        )
        assert relaxed <= strict

    @pytest.mark.parametrize(
        "n,r,x", [(3, 5, 3), (0, 3, 1), (1, 3, 1), (2, 4, 2), (4, 5, 2)]
    )
    def test_gap_is_one_when_nothing_fits(self, n, r, x):
        assert capacity_gap(n, r, x) == 1.0

    def test_partition_gap(self):
        assert capacity_gap(71, 3, 0) == pytest.approx(1 - 69 / 71)
        assert capacity_gap(72, 3, 0) == 0.0
