"""End-to-end integration tests: catalog -> placement -> cluster -> attack.

These exercise the full pipeline the README advertises, including the
soundness contract that ties everything together: a placement's measured
worst-case availability is never below its analytical lower bound.
"""

import random

import pytest

from repro import (
    ComboStrategy,
    RandomStrategy,
    SimpleStrategy,
    evaluate_availability,
    pr_avail_rnd,
)
from repro.cluster import (
    Cluster,
    WorstCaseInjector,
    majority_quorum_rule,
    threshold_rule,
)
from repro.designs.catalog import Existence


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
        rule = threshold_rule(s)
        available = []
        for placement in (
            SimpleStrategy(n, r, 1).place(b),
            RandomStrategy(n, r).place(b, random.Random(0)),
        ):
            cluster = Cluster(n)
            cluster.apply_placement(placement)
            WorstCaseInjector(effort="auto").inject(cluster, k, rule)
            available.append(b - len(cluster.dead_objects(rule)))
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
        rule = majority_quorum_rule(r)  # s = 3
        # place() needs blocks, so subsystems must be at the CONSTRUCTIBLE
        # tier (KNOWN suffices only for bound analysis).
        placement = ComboStrategy(n, r, rule.s, tier=Existence.CONSTRUCTIBLE).place(
            b, k
        )
        cluster = Cluster(n, racks=4)
        cluster.apply_placement(placement)
        injector = WorstCaseInjector(effort="fast")
        failed = injector.inject(cluster, k, rule)
        assert len(failed) == k
        assert cluster.availability(rule) >= 0.9

    def test_theoretical_random_prediction_brackets_simulation(self):
        # prAvail is a probabilistic estimate; with the exact adversary the
        # empirical value should land near it (within a few objects).
        n, r, s, k, b = 31, 5, 3, 3, 600
        placement = RandomStrategy(n, r).place(b, random.Random(7))
        report = evaluate_availability(placement, k, s, effort="exact")
        predicted = pr_avail_rnd(n, k, r, s, b)
        assert abs(report.available - predicted) <= 10
