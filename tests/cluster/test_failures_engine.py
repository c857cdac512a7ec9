"""Tests for failure injectors, workloads, metrics and the attack entries."""

import random

import pytest

from repro.cluster.cluster import Cluster, ClusterError
from repro.cluster.failures import (
    CorrelatedInjector,
    RandomInjector,
    WorstCaseInjector,
    fail_specific,
)
from repro.cluster.metrics import LoadStats
from repro.cluster.objects import threshold_rule
from repro.cluster.workload import (
    ChurnKind,
    churn_trace,
    geometric_object_counts,
)
from repro.core.adaptive import AdaptiveComboPlacement
from repro.core.availability import evaluate_availability
from repro.core.batch import AttackCell, AttackEngine, batch_attack
from repro.core.placement import Placement
from repro.core.random_placement import RandomStrategy
from repro.core.simple import SimpleStrategy


def deployed_cluster(n=10, b=25, r=3, seed=0):
    cluster = Cluster(n, racks=2)
    placement = RandomStrategy(n, r).place(b, random.Random(seed))
    cluster.apply_placement(placement)
    return cluster


class TestInjectors:
    def test_random_injector(self):
        cluster = deployed_cluster()
        nodes = RandomInjector(random.Random(0)).inject(cluster, 3, threshold_rule(2))
        assert len(nodes) == 3
        assert cluster.failed_nodes() == frozenset(nodes)

    def test_random_injector_exhausts(self):
        cluster = Cluster(3)
        cluster.add_object(0, [0, 1, 2])
        with pytest.raises(ClusterError):
            RandomInjector(random.Random(0)).inject(cluster, 4, threshold_rule(1))

    def test_correlated_injector_kills_rack(self):
        cluster = deployed_cluster()
        nodes = CorrelatedInjector(random.Random(0)).inject(cluster, rack=1)
        assert all(cluster.rack_of(i) == 1 for i in nodes)
        assert len(nodes) == 5

    def test_correlated_injector_empty_rack(self):
        cluster = Cluster(4, racks=2)
        cluster.add_object(0, [0, 1])
        CorrelatedInjector().inject(cluster, rack=0)
        with pytest.raises(ClusterError):
            CorrelatedInjector().inject(cluster, rack=0)

    def test_worst_case_injector_beats_random(self):
        cluster = deployed_cluster(b=40)
        rule = threshold_rule(2)
        worst = WorstCaseInjector(effort="exact").select(cluster, 3, rule)
        snapshot = cluster.placement_snapshot()
        worst_damage = len(snapshot.failed_objects(worst, 2))
        random_damage = len(
            snapshot.failed_objects(
                RandomInjector(random.Random(1)).select(cluster, 3, rule), 2
            )
        )
        assert worst_damage >= random_damage

    def test_fail_specific(self):
        cluster = deployed_cluster()
        assert fail_specific(cluster, [4, 2]) == [2, 4]
        assert cluster.failed_nodes() == frozenset({2, 4})

    def test_worst_case_injector_reuses_pinned_delta_engine(self):
        # An online adversary pins a delta-aware engine; injections then
        # skip the snapshot + fingerprint path and match it bit-for-bit.
        cluster = deployed_cluster(b=30)
        rule = threshold_rule(2)
        snapshot_based = WorstCaseInjector(effort="fast", seed=4)
        expected = snapshot_based.select(cluster, 3, rule)
        engine = AttackEngine(cluster.placement_snapshot())
        pinned = WorstCaseInjector(effort="fast", seed=4, engine=engine)
        assert pinned.select(cluster, 3, rule) == expected
        assert pinned.last_result.damage == snapshot_based.last_result.damage
        # Mutate the population through the engine; the injector tracks it.
        cluster.add_object(100, [0, 1, 2])
        cluster.add_object(101, [0, 1, 3])
        engine.apply_delta(added_objects=[[0, 1, 2], [0, 1, 3]])
        moved = pinned.select(cluster, 3, rule)
        fresh = WorstCaseInjector(effort="fast", seed=4).select(
            cluster, 3, rule
        )
        assert moved == fresh

    def test_worst_case_injector_warm_start(self):
        cluster = deployed_cluster(b=30)
        rule = threshold_rule(2)
        injector = WorstCaseInjector(effort="fast", seed=2)
        first = injector.inject(cluster, 2, rule)
        cluster.recover_all()
        chained = injector.select(cluster, 3, rule, warm_start=first)
        assert len(chained) == 3


class TestWorkload:
    def test_geometric_counts(self):
        assert geometric_object_counts(600, 6) == [
            600, 1200, 2400, 4800, 9600, 19200, 38400
        ]
        with pytest.raises(ValueError):
            geometric_object_counts(0, 3)

    def test_churn_trace_shape(self):
        events = list(churn_trace(50, 0.7, warmup_arrivals=10, rng=random.Random(0)))
        assert len(events) == 60
        assert all(e.kind == ChurnKind.ARRIVAL for e in events[:10])
        arrivals = sum(1 for e in events[10:] if e.kind == ChurnKind.ARRIVAL)
        assert 20 <= arrivals <= 50

    def test_churn_validation(self):
        with pytest.raises(ValueError):
            list(churn_trace(5, 1.5))
        with pytest.raises(ValueError):
            list(churn_trace(-1))


class TestMetrics:
    def test_load_stats(self):
        stats = LoadStats.from_loads([2, 4, 6])
        assert stats.minimum == 2
        assert stats.maximum == 6
        assert stats.mean == pytest.approx(4.0)
        assert stats.imbalance == pytest.approx(1.5)
        with pytest.raises(ValueError):
            LoadStats.from_loads([])


class TestEngine:
    def test_attack_scenario(self):
        # The injector on a deployed cluster kills exactly the damage the
        # single-cell evaluation reports.
        placement = SimpleStrategy(13, 3, 1).place(26)
        rule = threshold_rule(2)
        cluster = Cluster(placement.n)
        cluster.apply_placement(placement)
        injector = WorstCaseInjector(effort="exact")
        failed = injector.inject(cluster, 3, rule)
        assert len(failed) == 3
        assert cluster.failed_nodes() == frozenset(failed)
        lost = len(cluster.dead_objects(rule))
        assert lost == injector.last_result.damage
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
        for step, event in enumerate(events):
            if event.kind == ChurnKind.ARRIVAL:
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
