"""Tests for the Combo strategy and the Sec. III-B1 dynamic program."""

import itertools

import pytest

from repro.core.bounds import lb_avail_combo
from repro.core.combo import ComboStrategy
from repro.core.subsystems import select_combo_subsystems
from repro.designs.blocks import BlockDesign
from repro.designs.catalog import Existence
from repro.util.combinatorics import binom, ceil_div


class TestPlanBasics:
    def test_counts_sum_to_b(self):
        strategy = ComboStrategy(71, 5, 3, tier=Existence.KNOWN)
        for b in (600, 1200, 4800):
            for k in (3, 5, 7):
                plan = strategy.plan(b, k)
                assert sum(plan.counts) == b
                assert len(plan.lambdas) == 3

    def test_capacity_constraint_eqn3(self):
        strategy = ComboStrategy(71, 5, 3, tier=Existence.KNOWN)
        plan = strategy.plan(9600, 5)
        total_capacity = 0
        for x, lam in enumerate(plan.lambdas):
            sub = strategy.subsystems[x]
            if lam and sub:
                total_capacity += sub.capacity(lam)
        assert total_capacity >= 9600

    def test_lower_bound_nonnegative(self):
        strategy = ComboStrategy(31, 5, 3, tier=Existence.KNOWN)
        for b in (600, 4800, 38400):
            assert strategy.plan(b, 6).lower_bound >= 0

    def test_validation(self):
        strategy = ComboStrategy(71, 3, 2)
        with pytest.raises(ValueError):
            strategy.plan(0, 3)
        with pytest.raises(ValueError):
            strategy.plan(100, 1)  # k < s
        with pytest.raises(ValueError):
            ComboStrategy(71, 3, 4)  # s > r
        with pytest.raises(ValueError):
            ComboStrategy(71, 3, 2, subsystems=())

    def test_lower_bound_at_other_k(self):
        strategy = ComboStrategy(71, 5, 3, tier=Existence.KNOWN)
        plan = strategy.plan(1200, 6)
        assert plan.lower_bound_at(6) <= plan.lower_bound
        assert plan.lower_bound_at(4) >= plan.lower_bound_at(8)


class TestDPOptimality:
    """The DP must match brute-force enumeration of lambda assignments."""

    def brute_force(self, strategy, b, k):
        """Maximize Lemma-3 over all capacity-feasible per-stratum splits."""
        s = strategy.s
        units = [sub.unit_capacity if sub else 0 for sub in strategy.subsystems]
        mus = [sub.mu if sub else 0 for sub in strategy.subsystems]
        best = None
        ranges = []
        for x in range(s):
            if units[x] == 0:
                ranges.append([0])
            else:
                ranges.append(range(ceil_div(b, units[x]) + 1))
        for choice in itertools.product(*ranges):
            placed = sum(d * units[x] for x, d in enumerate(choice))
            if placed < b:
                continue
            # Objects actually placed per stratum, filled greedily top-down
            # exactly as the DP's traceback does.
            remaining = b
            value = 0
            for x in range(s - 1, -1, -1):
                d = choice[x]
                if d == 0:
                    continue
                here = min(remaining, d * units[x])
                loss = (d * mus[x] * binom(k, x + 1)) // binom(s, x + 1)
                value += here - loss
                remaining -= d * units[x]
                if remaining <= 0:
                    remaining = 0
            if best is None or value > best:
                best = value
        return best

    @pytest.mark.parametrize(
        "n,r,s", [(13, 3, 2), (16, 4, 3), (13, 3, 3), (31, 3, 3)]
    )
    def test_matches_brute_force_small(self, n, r, s):
        strategy = ComboStrategy(n, r, s, tier=Existence.CONSTRUCTIBLE)
        for b in (10, 30, 80, 120):
            for k in range(s, min(6, n - 1)):
                plan = strategy.plan(b, k)
                brute = self.brute_force(strategy, b, k)
                assert plan.lower_bound >= brute - 1e-9, (b, k)
                # DP respects Eqn 6's clamp; brute force here mirrors it, so
                # they should agree exactly when every stratum is available.
                assert plan.lower_bound >= max(0, brute), (b, k)

    def test_beats_or_matches_single_stratum(self):
        # Combo must never be worse than the best pure Simple choice
        # evaluated by the same lower-bound machinery.
        strategy = ComboStrategy(31, 3, 3, tier=Existence.KNOWN)
        b = 4800
        for k in (3, 4, 5, 6):
            plan = strategy.plan(b, k)
            for x in (1, 2):
                sub = strategy.subsystems[x]
                lam = sub.minimal_lambda(b)
                lambdas = [0, 0, 0]
                lambdas[x] = lam
                pure = lb_avail_combo(b, k, 3, lambdas)
                assert plan.lower_bound >= pure


class TestPaperAnchors:
    def test_fig10a_combo_beats_both_at_crossover(self):
        # Paper Sec. IV-C: at n = 31, b = 4800, k in {5, 6} the Combo bound
        # exceeds both pure Simple(1, .) and Simple(2, .) bounds because it
        # mixes Simple(2, 1) with Simple(1, 2).
        strategy = ComboStrategy(31, 3, 3, tier=Existence.KNOWN)
        for k in (5, 6):
            plan = strategy.plan(4800, k)
            subs = strategy.subsystems
            pure1 = lb_avail_combo(4800, k, 3, (0, subs[1].minimal_lambda(4800), 0))
            pure2 = lb_avail_combo(4800, k, 3, (0, 0, subs[2].minimal_lambda(4800)))
            assert plan.lower_bound > max(pure1, pure2)
            assert plan.lambdas[1] > 0 and plan.lambdas[2] > 0  # a true mix

    def test_sensitivity_is_mild(self):
        # Fig. 3's claim: configuring for k = 6 but suffering k' in 4..8
        # keeps the bound within a few percent of the k'-tuned bound.
        strategy = ComboStrategy(71, 5, 3, tier=Existence.KNOWN)
        plan6 = strategy.plan(1200, 6)
        for k_prime in range(4, 9):
            tuned = strategy.plan(1200, k_prime)
            ratio = plan6.lower_bound_at(k_prime) / max(
                1, tuned.lower_bound_at(k_prime)
            )
            assert ratio > 0.95


class TestPlacementRealization:
    def test_place_matches_plan_counts(self):
        strategy = ComboStrategy(31, 3, 2, tier=Existence.CONSTRUCTIBLE)
        plan = strategy.plan(200, 3)
        placement = strategy.place(200, 3, plan=plan)
        assert placement.b == 200
        assert placement.r == 3

    def test_placement_respects_stratum_packings(self):
        strategy = ComboStrategy(31, 3, 3, tier=Existence.CONSTRUCTIBLE)
        b, k = 500, 4
        plan = strategy.plan(b, k)
        placement = strategy.place(b, k, plan=plan)
        # The combined placement kills at most the Lemma-3 loss under any
        # exact attack on a small instance -- cross-check on sub-blocks:
        design = BlockDesign.from_blocks(
            31, [tuple(sorted(ns)) for ns in placement.replica_sets]
        )
        # Stratum multiplicities cannot exceed the planned lambdas overall:
        # any pair is shared by at most lambda_1 + (pairs inside x=2 blocks).
        assert design.max_coverage(3) <= max(1, plan.lambdas[2] + plan.lambdas[1])

    def test_soundness_small_exact(self):
        from repro.core.adversary import ExhaustiveAdversary

        strategy = ComboStrategy(13, 3, 2, tier=Existence.CONSTRUCTIBLE)
        b, k, s = 60, 3, 2
        plan = strategy.plan(b, k)
        placement = strategy.place(b, k, plan=plan)
        attack = ExhaustiveAdversary().attack(placement, k, s)
        assert b - attack.damage >= plan.lower_bound
