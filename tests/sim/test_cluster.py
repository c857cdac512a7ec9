"""Tests for the simulated cluster's state, validation and warm attack engine."""

import random

import pytest

from repro.sim.cluster import Cluster, ClusterError


def choose_repair_target(loads, up, exclude):
    """The O(n) scan that :meth:`Cluster.pick_repair_target` must equal.

    Least loaded among up nodes outside ``exclude``, ties to the lowest
    node id; None when no node qualifies.
    """
    excluded = set(exclude)
    best, best_load = None, -1
    for node, load in enumerate(loads):
        if not up[node] or node in excluded:
            continue
        if best is None or load < best_load:
            best, best_load = node, load
    return best


def assert_engine_aligned(cluster):
    """The engine's rows and loads are exactly the cluster's."""
    engine = cluster.engine()
    assert sorted(
        tuple(sorted(row)) for row in engine.placement.replica_sets
    ) == sorted(cluster.objects.values())
    node_off, node_end, _, _ = engine.incidence.csr()
    assert [
        end - off for off, end in zip(node_off, node_end)
    ] == cluster.loads()


def assert_slots_aligned(cluster):
    """Each engine slot holds the current row of the object mapped to it."""
    engine = cluster.engine()
    if engine is None:
        assert not cluster.objects
        return
    assert_engine_aligned(cluster)
    rows = engine.placement.replica_sets
    assert len(rows) == len(cluster.objects)
    for slot, obj_id in enumerate(cluster._slot_ids):
        assert tuple(sorted(rows[slot])) == cluster.objects[obj_id]


def assert_matches_recounts(cluster, rng, r):
    """Loads, the repair-target picker and availability against recounts."""
    n = cluster.n
    loads = [0] * n
    for nodes in cluster.objects.values():
        for node in nodes:
            loads[node] += 1
    assert cluster.loads() == loads
    for node in range(n):
        assert cluster.hosted(node) == {
            obj_id for obj_id, nodes in cluster.objects.items()
            if node in nodes
        }
    failed = cluster.failed_nodes()
    up = [node not in failed for node in range(n)]
    for _ in range(4):
        exclude = tuple(rng.sample(range(n), rng.randrange(0, r + 2)))
        assert cluster.pick_repair_target(exclude) == choose_repair_target(
            loads, up, exclude
        )
    if not cluster.objects:
        assert all(cluster.availability(s) == 1.0 for s in range(1, r + 1))
        return
    snap = cluster.placement_snapshot()
    for s in range(1, r + 1):
        dead = len(snap.failed_objects(failed, s))
        assert cluster.availability(s) == (snap.b - dead) / snap.b


class TestNode:
    """Per-node state: hosted replicas, loads, up/failed."""

    def test_host_and_evict(self):
        cluster = Cluster(3)
        cluster.add_object(10, [0, 1])
        cluster.add_object(11, [0, 2])
        assert cluster.hosted(0) == {10, 11}
        assert cluster.loads() == [2, 1, 1]
        cluster.remove_object(10)
        assert cluster.hosted(0) == {11}
        assert cluster.loads() == [1, 0, 1]

    def test_double_host_rejected(self):
        cluster = Cluster(4)
        cluster.add_object(1, [0, 1])
        with pytest.raises(ClusterError):
            cluster.move_replica(1, 0, 1)
        assert cluster.objects[1] == (0, 1)

    def test_evict_missing_rejected(self):
        cluster = Cluster(4)
        cluster.add_object(1, [0, 1])
        with pytest.raises(ClusterError):
            cluster.move_replica(1, 2, 3)
        with pytest.raises(ClusterError):
            cluster.move_replica(5, 0, 3)
        assert cluster.loads() == [1, 1, 0, 0]

    def test_fail_recover(self):
        cluster = Cluster(3)
        cluster.fail_nodes([1])
        assert not cluster.is_up(1)
        assert cluster.up_nodes() == [0, 2]
        cluster.recover(1)
        assert cluster.is_up(1)
        assert cluster.up_nodes() == [0, 1, 2]


class TestCluster:
    def test_add_remove_object(self):
        cluster = Cluster(4)
        cluster.add_object(7, [0, 1])
        assert cluster.loads() == [1, 1, 0, 0]
        cluster.remove_object(7)
        assert cluster.loads() == [0, 0, 0, 0]
        with pytest.raises(ClusterError):
            cluster.remove_object(7)

    def test_add_object_rejects_repeated_nodes(self):
        cluster = Cluster(4)
        with pytest.raises(ClusterError):
            cluster.add_object(0, [1, 1, 2])
        assert cluster.objects == {}
        assert cluster.loads() == [0, 0, 0, 0]

    def test_move_replica_edits_the_row_in_place(self):
        cluster = Cluster(5)
        cluster.add_object(0, [0, 1])
        cluster.add_object(1, [2, 3])
        cluster.add_object(2, [1, 4])
        cluster.move_replica(1, 3, 0)
        assert list(cluster.objects.items()) == [
            (0, (0, 1)), (1, (0, 2)), (2, (1, 4)),
        ]
        assert cluster.hosted(0) == {0, 1}
        assert cluster.hosted(3) == set()
        assert cluster.loads() == [2, 2, 1, 0, 1]

    def test_duplicate_object_rejected(self):
        cluster = Cluster(4)
        cluster.add_object(1, [0, 1])
        with pytest.raises(ClusterError):
            cluster.add_object(1, [2, 3])

    def test_fail_nodes_and_double_fault(self):
        cluster = Cluster(4)
        cluster.fail_nodes([0, 2])
        assert cluster.failed_nodes() == frozenset({0, 2})
        with pytest.raises(ClusterError):
            cluster.fail_nodes([2])
        with pytest.raises(ClusterError):
            cluster.fail_nodes([1, 1])  # a double fault within one call
        assert cluster.failed_nodes() == frozenset({0, 2})
        cluster.recover(0)
        cluster.recover(2)
        assert cluster.failed_nodes() == frozenset()

    def test_availability_thresholds(self):
        # An object dies once s of its replicas sit on failed nodes.
        cluster = Cluster(5)
        cluster.add_object(0, [0, 1, 2])
        cluster.fail_nodes([0])
        assert cluster.availability(3) == 1.0  # read-one: s = r
        assert cluster.availability(1) == 0.0  # write-all: s = 1
        assert cluster.availability(2) == 1.0  # majority quorum of 3
        cluster.fail_nodes([1])
        assert cluster.availability(2) == 0.0

    def test_availability_fraction(self):
        cluster = Cluster(5)
        cluster.add_object(0, [0, 1])
        cluster.add_object(1, [2, 3])
        cluster.fail_nodes([0, 1])
        assert cluster.availability(2) == pytest.approx(0.5)

    def test_empty_cluster_availability(self):
        assert Cluster(3).availability(1) == 1.0

    def test_snapshot_roundtrip(self):
        cluster = Cluster(5)
        cluster.add_object(3, [0, 1])
        cluster.add_object(9, [2, 4])
        snapshot = cluster.placement_snapshot()
        assert snapshot.b == 2
        assert snapshot.replica_sets == (frozenset({0, 1}), frozenset({2, 4}))

    def test_snapshot_empty_rejected(self):
        with pytest.raises(ClusterError):
            Cluster(3).placement_snapshot()

    def test_racks(self):
        cluster = Cluster(6, racks=3)
        assert cluster.racks == 3
        assert cluster.rack_nodes(1) == [1, 4]
        # More racks than nodes: only the occupied racks count.
        assert Cluster(2, racks=5).racks == 2

    def test_validation(self):
        with pytest.raises(ClusterError):
            Cluster(0)
        with pytest.raises(ClusterError):
            Cluster(3, racks=0)
        cluster = Cluster(3)
        with pytest.raises(ClusterError):
            cluster.add_object(0, [0, 5])
        with pytest.raises(ClusterError):
            cluster.fail_nodes([9])


class TestClusterEngine:
    """The warm attack engine fed from the cluster's own change record."""

    @staticmethod
    def record_deltas(monkeypatch, engine):
        calls = []
        apply_delta = engine.apply_delta

        def recording(**kwargs):
            calls.append(kwargs)
            return apply_delta(**kwargs)

        monkeypatch.setattr(engine, "apply_delta", recording)
        return calls

    def test_flush_batches_churn_into_one_delta(self, monkeypatch):
        cluster = Cluster(9)
        for obj_id in range(6):
            cluster.add_object(obj_id, [(obj_id + i) % 9 for i in range(3)])
        engine = cluster.engine()
        assert engine.placement.b == 6
        calls = self.record_deltas(monkeypatch, engine)
        cluster.remove_object(1)
        cluster.add_object(10, (0, 3, 6))
        cluster.move_replica(4, 5, 1)
        cluster.move_replica(4, 6, 7)
        assert cluster.engine() is engine
        # One delta: the moved object keeps slot 4 and its two moves go
        # in order; the vacated slot, then the added row.
        assert calls == [{
            "added_objects": [(0, 3, 6)],
            "removed_objects": [1],
            "moved_replicas": [(4, 5, 1), (4, 6, 7)],
        }]
        assert engine.placement.b == 6
        assert_engine_aligned(cluster)
        # The replayed slot table keeps later deltas aligned too.
        cluster.remove_object(10)
        cluster.move_replica(5, 5, 8)
        assert_engine_aligned(cluster)
        assert len(calls) == 2
        assert cluster.engine() is engine and len(calls) == 2

    def test_pending_add_then_remove_cancels(self, monkeypatch):
        cluster = Cluster(6)
        cluster.add_object(0, (0, 1, 2))
        cluster.add_object(1, (1, 2, 3))
        cluster.remove_object(1)
        engine = cluster.engine()
        assert engine.placement.b == 1
        calls = self.record_deltas(monkeypatch, engine)
        cluster.add_object(2, (2, 3, 4))
        cluster.move_replica(2, 4, 5)
        cluster.remove_object(2)
        assert cluster.engine() is engine
        assert calls == []

    def test_emptying_population_drops_the_engine(self):
        cluster = Cluster(6)
        cluster.add_object(0, (0, 1, 2))
        assert cluster.engine() is not None
        cluster.remove_object(0)
        assert cluster.engine() is None
        cluster.add_object(1, (2, 3, 4))
        engine = cluster.engine()
        assert engine is not None and engine.placement.b == 1
        assert_engine_aligned(cluster)

    def test_object_moved_twice_between_flushes(self, monkeypatch):
        cluster = Cluster(8)
        for obj_id in range(4):
            cluster.add_object(obj_id, (obj_id, obj_id + 1, obj_id + 2))
        engine = cluster.engine()
        calls = self.record_deltas(monkeypatch, engine)
        # Object 1 (slot 1): one replica moved along a chain, then another.
        cluster.move_replica(1, 1, 6)
        cluster.move_replica(1, 6, 7)
        cluster.move_replica(1, 3, 0)
        assert cluster.objects[1] == (0, 2, 7)
        assert cluster.engine() is engine
        assert calls == [{
            "added_objects": [],
            "removed_objects": [],
            "moved_replicas": [(1, 1, 6), (1, 6, 7), (1, 3, 0)],
        }]
        assert_slots_aligned(cluster)

    def test_object_moved_then_removed(self, monkeypatch):
        cluster = Cluster(8)
        for obj_id in range(4):
            cluster.add_object(obj_id, (obj_id, obj_id + 1, obj_id + 2))
        engine = cluster.engine()
        calls = self.record_deltas(monkeypatch, engine)
        cluster.move_replica(1, 1, 6)
        cluster.move_replica(3, 5, 0)
        cluster.remove_object(1)
        assert cluster.engine() is engine
        # The departed object's move dies with its slot.
        assert calls == [{
            "added_objects": [],
            "removed_objects": [1],
            "moved_replicas": [(3, 5, 0)],
        }]
        assert_slots_aligned(cluster)

    def test_object_added_then_moved_before_a_flush(self, monkeypatch):
        cluster = Cluster(8)
        cluster.add_object(0, (0, 1, 2))
        engine = cluster.engine()
        calls = self.record_deltas(monkeypatch, engine)
        cluster.add_object(5, (3, 4, 5))
        cluster.move_replica(5, 4, 7)
        # A removed object re-added under its id is a new row too.
        cluster.remove_object(0)
        cluster.add_object(0, (1, 2, 6))
        cluster.move_replica(0, 6, 3)
        assert cluster.engine() is engine
        # Both rows go out as arrivals with their current nodes; no moves.
        assert calls == [{
            "added_objects": [(3, 5, 7), (1, 2, 3)],
            "removed_objects": [0],
            "moved_replicas": [],
        }]
        assert_slots_aligned(cluster)

    def test_unknown_ids_raise(self, monkeypatch):
        cluster = Cluster(6)
        cluster.add_object(5, (0, 1, 2))
        engine = cluster.engine()
        calls = self.record_deltas(monkeypatch, engine)
        with pytest.raises(ClusterError):
            cluster.remove_object(4)
        with pytest.raises(ClusterError):
            cluster.move_replica(4, 0, 3)
        with pytest.raises(ClusterError):
            cluster.add_object(5, (0, 1, 2))
        # Rejected operations leave nothing to apply.
        assert cluster.engine() is engine
        assert calls == []


class TestClusterModel:
    """Seeded add/remove/move/fail/recover sequences against recounts.

    After every operation the maintained loads, load buckets and
    failed-replica histogram must equal a recount from ``objects`` and
    :meth:`Placement.failed_objects`; after every engine flush each slot
    must hold its object's current row.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_maintained_state_matches_recounts(self, seed):
        rng = random.Random(seed)
        n, r = 10, 3
        cluster = Cluster(n, racks=3)
        next_id, departed, flushes = 0, [], 0
        for _ in range(300):
            op = rng.random()
            live = list(cluster.objects)
            if op < 0.3 or not live:
                if departed and rng.random() < 0.3:
                    obj_id = departed.pop(rng.randrange(len(departed)))
                else:
                    obj_id, next_id = next_id, next_id + 1
                cluster.add_object(obj_id, rng.sample(range(n), r))
            elif op < 0.45:
                obj_id = rng.choice(live)
                cluster.remove_object(obj_id)
                departed.append(obj_id)
            elif op < 0.7:
                obj_id = rng.choice(live)
                nodes = cluster.objects[obj_id]
                new = rng.choice([v for v in range(n) if v not in nodes])
                cluster.move_replica(obj_id, rng.choice(nodes), new)
            elif op < 0.8:
                up = cluster.up_nodes()
                if len(up) > 1:
                    cluster.fail_nodes(rng.sample(up, rng.randrange(1, 3)))
            elif op < 0.9:
                failed = sorted(cluster.failed_nodes())
                if failed:
                    cluster.recover(rng.choice(failed))
            else:
                assert_slots_aligned(cluster)
                flushes += 1
            assert_matches_recounts(cluster, rng, r)
        assert flushes > 10
        assert_slots_aligned(cluster)
