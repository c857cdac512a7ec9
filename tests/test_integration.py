"""End-to-end integration tests: catalog -> placement -> worst-case attack.

These exercise the full pipeline the README advertises, including the
soundness contract that ties everything together: a placement's measured
worst-case availability is never below its analytical lower bound.
"""

import random

import pytest

from repro import (
    AdaptiveComboPlacement,
    AttackCell,
    AttackEngine,
    ComboStrategy,
    RandomStrategy,
    SimpleStrategy,
    batch_attack,
    evaluate_availability,
    majority_threshold,
    pr_avail_rnd,
)
from repro.designs.catalog import Existence
from repro.sim.events import EventKind
from repro.sim.processes import churn_trace


class TestQuickstartPath:
    """The README quickstart, as a test."""

    def test_combo_end_to_end(self):
        combo = ComboStrategy(n=71, r=3, s=2, tier=Existence.CONSTRUCTIBLE)
        plan = combo.plan(b=1200, k=3)
        placement = combo.place(b=1200, k=3, plan=plan)
        report = evaluate_availability(placement, k=3, s=2, effort="fast")
        # Heuristic adversary over-estimates availability, so this holds a
        # fortiori; with exact search it is the Lemma-3 guarantee.
        assert report.available >= plan.lower_bound
        assert placement.b == 1200

    def test_simple_vs_random_on_cluster(self):
        n, r, s, k, b = 31, 3, 2, 3, 200
        available = []
        for placement in (
            SimpleStrategy(n, r, 1).place(b),
            RandomStrategy(n, r).place(b, random.Random(0)),
        ):
            attack = AttackEngine(placement).attack(
                AttackCell(k, s, "auto"), seed=0
            )
            available.append(b - len(placement.failed_objects(attack.nodes, s)))
        simple_available, random_available = available
        # The combinatorial placement's guarantee beats Random's typical
        # worst case at these parameters (a Fig 9 "white cell" regime).
        assert simple_available >= random_available


class TestSoundnessSweep:
    """Lemma 2/3 soundness across a parameter sweep with exact attacks."""

    @pytest.mark.parametrize(
        "n,r,s,k,b",
        [
            (13, 3, 2, 2, 40),
            (13, 3, 2, 3, 60),
            (13, 3, 3, 3, 80),
            (16, 4, 2, 2, 30),
            (16, 4, 3, 3, 50),
        ],
    )
    def test_combo_bound_holds_exactly(self, n, r, s, k, b):
        combo = ComboStrategy(n, r, s, tier=Existence.CONSTRUCTIBLE)
        plan = combo.plan(b, k)
        placement = combo.place(b, k, plan=plan)
        report = evaluate_availability(placement, k, s, effort="exact")
        assert report.exact
        assert report.available >= plan.lower_bound


class TestClusterScenario:
    def test_majority_quorum_attack(self):
        n, r, b, k = 31, 5, 100, 3
        s = majority_threshold(r)  # s = 3
        # place() needs blocks, so subsystems must be at the CONSTRUCTIBLE
        # tier (KNOWN suffices only for bound analysis).
        placement = ComboStrategy(n, r, s, tier=Existence.CONSTRUCTIBLE).place(
            b, k
        )
        attack = AttackEngine(placement).attack(AttackCell(k, s, "fast"), seed=0)
        assert len(set(attack.nodes)) == k
        lost = len(placement.failed_objects(attack.nodes, s))
        assert lost == attack.damage
        assert 1 - lost / b >= 0.9

    def test_theoretical_random_prediction_brackets_simulation(self):
        # prAvail is a probabilistic estimate; with the exact adversary the
        # empirical value should land near it (within a few objects).
        n, r, s, k, b = 31, 5, 3, 3, 600
        placement = RandomStrategy(n, r).place(b, random.Random(7))
        report = evaluate_availability(placement, k, s, effort="exact")
        predicted = pr_avail_rnd(n, k, r, s, b)
        assert abs(report.available - predicted) <= 10


class TestEngine:
    def test_attack_scenario(self):
        # The attack kills exactly the damage it reports, and the
        # single-cell evaluation agrees.
        placement = SimpleStrategy(13, 3, 1).place(26)
        attack = AttackEngine(placement).attack(AttackCell(3, 2, "exact"), seed=0)
        assert len(set(attack.nodes)) == 3
        lost = len(placement.failed_objects(attack.nodes, 2))
        assert lost == attack.damage
        report = evaluate_availability(placement, 3, 2, effort="exact")
        assert lost == report.failed
        assert report.available + lost == 26

    def test_attack_grid_matches_single_scenarios(self):
        placement = SimpleStrategy(13, 3, 1).place(26)
        cells = [AttackCell(k, 2, "exact") for k in (2, 3, 4)]
        attacks = batch_attack(placement, cells)
        for cell, attack in zip(cells, attacks):
            single = evaluate_availability(placement, cell.k, 2, effort="exact")
            assert attack.damage == single.attack.damage
            assert attack.exact and single.exact
        # Worst-case losses are monotone in k.
        losses = [attack.damage for attack in attacks]
        assert losses == sorted(losses)

    def test_compare_strategies(self):
        simple = SimpleStrategy(13, 3, 1).place(26)
        rnd = RandomStrategy(13, 3).place(26, random.Random(2))
        simple_report = evaluate_availability(simple, 3, 2, effort="exact")
        random_report = evaluate_availability(rnd, 3, 2, effort="exact")
        # The Simple placement guarantees >= its bound; in this regime it
        # should not lose to Random's worst case.
        assert simple_report.available >= random_report.available - 1

    def test_churn_scenario(self):
        # Adaptive placement under churn never falls below its Lemma-3
        # floor, measured every 8 events.
        adaptive = AdaptiveComboPlacement(13, 3, 2, 3, replan_interval=8)
        events = churn_trace(24, 0.75, warmup_arrivals=16, rng=random.Random(3))
        rng = random.Random(1)
        live = []
        samples = 0
        for step, kind in enumerate(events):
            if kind == EventKind.ARRIVAL:
                live.append(adaptive.add_object())
            elif live:
                adaptive.remove_object(live.pop(rng.randrange(len(live))))
            if live and step % 8 == 7:
                report = evaluate_availability(
                    adaptive.placement(), 3, 2, effort="fast"
                )
                assert report.available >= adaptive.lower_bound()
                samples += 1
        assert samples, "expected at least one measurement"
