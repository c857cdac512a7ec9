"""End-to-end tests for the cluster lifetime simulator."""

import hashlib
import json
import statistics

import pytest

from repro.sim import (
    LifetimeSimulator,
    SimConfig,
    make_repair_policy,
    simulate,
)
from repro.sim.cluster import Cluster
from repro.sim.repair import EagerRepair, LazyRepair, NoRepair


def strike_tuples(report):
    return [
        (s.time, s.nodes, s.damage, s.live_objects, s.lower_bound, s.certified)
        for s in report.strikes
    ]


def sample_dicts(report):
    return [s.to_dict() for s in report.samples]


BASE = dict(
    n=31, r=3, s=2, k=3, events=500, seed=5, racks=4,
    warmup_arrivals=40, failure_rate=0.03, strike_period=16.0,
    measure_period=8.0,
)


class TestDeterminismAndEquivalence:
    def test_replay_is_bit_for_bit(self):
        first = simulate(**BASE)
        second = simulate(**BASE)
        assert strike_tuples(first) == strike_tuples(second)
        assert sample_dicts(first) == sample_dicts(second)
        assert first.event_counts == second.event_counts

    @pytest.mark.parametrize("repair", ["none", "lazy", "eager"])
    def test_delta_and_rebuild_modes_agree(self, repair):
        config = {**BASE, "rack_failure_rate": 0.02, "repair": repair}
        sim = LifetimeSimulator(SimConfig(**config, engine_mode="delta"))
        delta = sim.run()
        rebuild = simulate(**config, engine_mode="rebuild")
        assert delta.event_counts.get("rack-fail", 0) > 0
        assert strike_tuples(delta) == strike_tuples(rebuild)
        assert sample_dicts(delta) == sample_dicts(rebuild)
        assert delta.event_counts == rebuild.event_counts
        # The warm engine still describes exactly the cluster's population.
        cluster = sim.cluster
        engine = cluster.engine()
        assert sorted(
            tuple(sorted(row)) for row in engine.placement.replica_sets
        ) == sorted(cluster.objects.values())
        node_off, node_end, _, _ = engine.incidence.csr()
        assert [
            end - off for off, end in zip(node_off, node_end)
        ] == cluster.loads()

    def test_eager_rack_failure_trajectory_is_pinned(self):
        # One exact trajectory with every mutation path live: arrivals and
        # departures, node and rack failures, eager re-replication. Any
        # change to the cluster state, the repair choices or the engine's
        # view of the population moves this digest.
        report = simulate(**BASE, repair="eager", rack_failure_rate=0.02)
        assert report.event_counts["rack-fail"] > 0
        assert report.event_counts["re-replicate"] > 0
        payload = json.dumps(
            {
                "strikes": [s.to_dict() for s in report.strikes],
                "samples": sample_dicts(report),
                "event_counts": report.event_counts,
            },
            sort_keys=True,
        )
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "0376c9fcdf2e6ee9ad5c2d4805a142a020fbed495fd7f4cf52a0a3dc8c3d8e56"
        )

    def test_seeds_decorrelate(self):
        first = simulate(**{**BASE, "seed": 1})
        second = simulate(**{**BASE, "seed": 2})
        assert strike_tuples(first) != strike_tuples(second)


class TestIndependentRecount:
    """Samples and strike damage against a recount from a placement snapshot.

    The recount uses only :meth:`Placement.failed_objects` on
    ``cluster.placement_snapshot()``: neither the warm engine nor the
    cluster's own liveness count.
    """

    def test_samples_and_strikes_match_a_snapshot_recount(self):
        sim = LifetimeSimulator(SimConfig(
            **BASE, repair="eager", rack_failure_rate=0.02,
            engine_mode="delta",
        ))
        cluster, s = sim.cluster, sim.config.s
        expected_samples, strike_snapshots = [], {}

        measure, strike = sim._handle_measure, sim._handle_strike

        def recounting_measure(now):
            if cluster.objects:
                snap = cluster.placement_snapshot()
                failed = cluster.failed_nodes()
                dead = len(snap.failed_objects(failed, s))
                loads = snap.loads()
                expected_samples.append((
                    (snap.b - dead) / snap.b,  # 1 - dead / b
                    max(loads) / statistics.fmean(loads),
                    sum(loads[node] for node in failed),
                ))
            else:
                expected_samples.append((1.0, 1.0, 0))
            measure(now)

        def snapshotting_strike(now):
            # Taken before the strike fails its nodes.
            if cluster.objects:
                strike_snapshots[now] = cluster.placement_snapshot()
            strike(now)

        sim._handle_measure = recounting_measure
        sim._handle_strike = snapshotting_strike
        report = sim.run()

        for kind in ("departure", "rack-fail", "re-replicate"):
            assert report.event_counts.get(kind, 0) > 0
        assert report.strikes and len(report.samples) == len(expected_samples)
        assert [
            (sample.availability, sample.load_imbalance, sample.repair_backlog)
            for sample in report.samples
        ] == expected_samples
        for record in report.strikes:
            snap = strike_snapshots[record.time]
            assert record.damage == len(snap.failed_objects(record.nodes, s))


class TestGuarantees:
    def test_certified_strikes_respect_lemma3(self):
        # No re-replication => the packing certificate holds for the whole
        # run, and every strike must leave at least the Lemma-3 floor.
        report = simulate(**BASE, repair="none")
        assert report.strikes, "expected strikes"
        assert all(s.certified for s in report.strikes)
        assert report.bound_violations() == 0

    def test_exact_effort_also_respects_lemma3(self):
        report = simulate(
            n=13, r=3, s=2, k=2, events=200, seed=3, warmup_arrivals=24,
            strike_period=12.0, measure_period=8.0, effort="exact",
        )
        assert report.strikes
        assert report.bound_violations() == 0

    def test_rereplication_voids_the_certificate(self):
        report = simulate(**BASE, repair="eager")
        assert report.strikes
        assert not report.strikes[-1].certified
        assert report.certified_strikes() < len(report.strikes)

    def test_eager_repair_drains_backlog_without_node_recovery(self):
        # With repair_time far beyond the horizon and no strikes, the
        # handful of random failures never recover — backlog can only
        # drain through re-replication.
        scenario = {
            **BASE, "repair_time": 10_000.0, "strike_period": 0.0,
            "failure_rate": 0.02,
        }
        eager = simulate(**scenario, repair="eager")
        degraded = simulate(**scenario, repair="none")
        assert eager.event_counts.get("node-fail", 0) > 0
        assert eager.samples[-1].repair_backlog == 0
        assert degraded.samples[-1].repair_backlog > 0
        assert eager.min_availability() >= degraded.min_availability()

    def test_lazy_repair_skips_fast_recoveries(self):
        # Grace longer than the downtime: nodes always repair first, so no
        # replica ever moves and the certificate survives — including when
        # a node fails again before an older grace check fires (the epoch
        # stamp marks that check stale).
        report = simulate(
            **{**BASE, "repair_time": 2.0}, repair="lazy", repair_grace=50.0,
        )
        assert report.event_counts.get("re-replicate", 0) > 0
        assert all(s.certified for s in report.strikes)
        assert report.bound_violations() == 0


class TestSimulatorMechanics:
    def test_event_budget_is_respected(self):
        report = simulate(**{**BASE, "events": 123})
        assert report.events == 123
        assert sum(report.event_counts.values()) == 123

    def test_rack_failures_fire(self):
        report = simulate(
            **{**BASE, "failure_rate": 0.0}, rack_failure_rate=0.02,
        )
        assert report.event_counts.get("rack-fail", 0) > 0

    def test_departure_heavy_churn_survives_empty_population(self):
        report = simulate(
            n=13, r=3, s=2, k=2, events=150, seed=9,
            arrival_probability=0.1, warmup_arrivals=2,
            strike_period=4.0, measure_period=4.0,
        )
        assert report.events == 150

    def test_report_round_trips_to_dict(self):
        report = simulate(**{**BASE, "events": 120})
        payload = report.to_dict()
        assert payload["schema"] == "sim_report/v1"
        assert payload["events"] == 120
        assert len(payload["samples"]) == len(report.samples)
        assert len(payload["strikes"]) == len(report.strikes)
        assert payload["bound_violations"] == report.bound_violations()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=1).validate()
        with pytest.raises(ValueError):
            SimConfig(k=0).validate()
        with pytest.raises(ValueError):
            SimConfig(k=31).validate()
        with pytest.raises(ValueError):
            SimConfig(s=9).validate()
        with pytest.raises(ValueError):
            SimConfig(events=0).validate()
        with pytest.raises(ValueError):
            SimConfig(engine_mode="warp").validate()
        with pytest.raises(ValueError):
            LifetimeSimulator(SimConfig(repair="sometimes"))

    def test_simulator_exposes_live_state(self):
        sim = LifetimeSimulator(SimConfig(**{**BASE, "events": 200}))
        report = sim.run()
        assert report.samples and report.strikes
        assert sim.adaptive.num_objects == len(sim.cluster.objects)
        # The warm engine tracks the same population the cluster hosts.
        assert sim.cluster.engine().placement.b == len(sim.cluster.objects)


class TestRepairPolicies:
    def test_factory(self):
        assert isinstance(make_repair_policy("eager"), EagerRepair)
        assert isinstance(make_repair_policy("lazy", grace=2.0), LazyRepair)
        assert isinstance(make_repair_policy("none"), NoRepair)
        with pytest.raises(ValueError):
            make_repair_policy("later")

    def test_timing(self):
        assert EagerRepair().rereplicate_at(5.0, 0) == 5.0
        assert EagerRepair(detection_delay=1.5).rereplicate_at(5.0, 0) == 6.5
        assert LazyRepair(grace=4.0).rereplicate_at(5.0, 0) == 9.0
        assert NoRepair().rereplicate_at(5.0, 0) is None
        with pytest.raises(ValueError):
            LazyRepair(grace=-1.0)

    def test_choose_repair_target_is_deterministic(self):
        cluster = Cluster(5)
        obj_id = 0
        for node, load in enumerate([5, 1, 1, 9, 0]):
            for _ in range(load):
                cluster.add_object(obj_id, [node])
                obj_id += 1
        cluster.fail_nodes([4])
        # Node 4 is down, node 1 ties node 2 on load: lowest id wins.
        assert cluster.pick_repair_target(()) == 1
        assert cluster.pick_repair_target((1,)) == 2
        assert cluster.pick_repair_target((1, 2)) == 0
        # A move shifts both loads, and so the next choice.
        cluster.move_replica(0, 0, 1)
        assert cluster.pick_repair_target(()) == 2
        cluster.fail_nodes([0, 1, 2, 3])
        assert cluster.pick_repair_target(()) is None
        cluster.recover(4)
        assert cluster.pick_repair_target(()) == 4
