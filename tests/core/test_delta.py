"""Tests for the delta-aware attack engine and mutable incidence.

The contract under test: an engine that absorbed any interleaved sequence
of object arrivals, departures and in-place replica moves via
``apply_delta`` is indistinguishable —
bit-for-bit, ``AttackResult`` equality including evaluation counts — from
an engine built cold from the resulting placement, across every gain
backing available in this environment.
"""

import random

import pytest

from repro.core.batch import AttackCell, AttackEngine
from repro.core.kernels import (
    GAIN_BACKINGS,
    Incidence,
    resolve_gain_backing,
)
from repro.core.placement import Placement
from repro.core.random_placement import RandomStrategy


def random_placement(n, r, b, seed):
    return RandomStrategy(n, r).place(b, random.Random(seed))


def available_gain_backings():
    available = []
    for backing in GAIN_BACKINGS:
        try:
            resolve_gain_backing(backing)
        except ValueError:
            continue
        available.append(backing)
    return available


def csr_node_objects(incidence):
    """Each node's hosted object ids, read off the CSR."""
    node_off, node_end, node_objs, _ = incidence.csr()
    return [list(node_objs[node_off[v]:node_end[v]]) for v in range(incidence.n)]


def csr_object_nodes(incidence):
    """Each live object's replica row, read off the CSR."""
    obj_nodes, r = incidence.csr()[3], incidence.r
    return [tuple(obj_nodes[o * r:(o + 1) * r]) for o in range(incidence.b)]


def csr_loads(incidence):
    node_off, node_end, _, _ = incidence.csr()
    return [node_end[v] - node_off[v] for v in range(incidence.n)]


def random_delta(rng, engine_b, n, r):
    """One random churn batch: (added replica sets, removed ids)."""
    added = [
        sorted(rng.sample(range(n), r)) for _ in range(rng.randrange(0, 3))
    ]
    removable = max(0, engine_b - 4)
    removed = (
        rng.sample(range(engine_b), min(removable, rng.randrange(0, 3)))
        if removable else []
    )
    return added, removed


def assert_offsets_consistent(incidence):
    """The replica offset index agrees with the node segments."""
    node_off, node_end, node_objs, obj_nodes = incidence.csr()
    offsets, r = incidence._offsets, incidence.r
    for at in range(incidence.b * r):
        node = obj_nodes[at]
        offset = offsets[at]
        assert 0 <= offset < node_end[node] - node_off[node]
        assert node_objs[node_off[node] + offset] == at // r


def random_moves(rng, model, n, count):
    """Up to ``count`` valid moves ``(id, old, new)``, applied to ``model``.

    Ids may repeat, so one object can move several times in a batch.
    """
    moves = []
    for _ in range(count):
        obj_id = rng.randrange(len(model))
        row = model[obj_id]
        old = rng.choice(row)
        new = rng.choice([node for node in range(n) if node not in row])
        row[row.index(old)] = new
        moves.append((obj_id, old, new))
    return moves


def apply_to_model(model, added, removed):
    """Swap-with-last removals in descending id order, then appends."""
    for obj_id in sorted(removed, reverse=True):
        last = model.pop()
        if obj_id < len(model):
            model[obj_id] = last
    model.extend(list(row) for row in added)


class TestDeltaIncidence:
    def test_matches_cold_incidence_after_interleaved_deltas(self):
        rng = random.Random(11)
        placement = random_placement(12, 3, 30, 0)
        delta = Incidence(placement)
        for _ in range(40):
            added, removed = random_delta(rng, delta.b, 12, 3)
            if not added and not removed:
                continue
            current = delta.apply_delta(added, removed)
            cold = Incidence(current)
            assert [sorted(row) for row in csr_node_objects(delta)] == [
                sorted(row) for row in csr_node_objects(cold)
            ]
            assert csr_object_nodes(delta) == csr_object_nodes(cold)
            assert csr_loads(delta) == csr_loads(cold)
            assert current.load_profile() == tuple(
                Placement.from_replica_sets(
                    current.n, current.replica_sets
                ).load_profile()
            )

    def _assert_csr_equivalent(self, delta, cold):
        """Padded delta export == tight cold export on the live region."""
        b, r, n = delta.b, delta.r, delta.n
        d_off, d_end, d_store, d_on = delta.csr()
        c_off, c_end, c_store, c_on = cold.csr()
        assert list(d_on[:b * r]) == list(c_on[:b * r])
        # Node-major object order may differ after swaps; contents may not.
        for node in range(n):
            assert sorted(d_store[d_off[node]:d_end[node]]) == sorted(
                c_store[c_off[node]:c_end[node]]
            )

    def test_csr_matches_cold_export(self):
        placement = random_placement(9, 3, 20, 1)
        delta = Incidence(placement)
        delta.apply_delta(added=[[0, 1, 2]], removed=[3, 15])
        self._assert_csr_equivalent(delta, Incidence(delta.placement))

    def test_csr_is_maintained_in_place_until_overflow(self):
        rng = random.Random(31)
        placement = random_placement(9, 3, 12, 4)
        delta = Incidence(placement)
        delta.apply_delta(added=[[0, 1, 2]])  # the one copy to padded
        exported = delta.csr()
        grew = False
        for _ in range(60):
            added, removed = random_delta(rng, delta.b, 9, 3)
            if not added and not removed:
                continue
            delta.apply_delta(added, removed)
            self._assert_csr_equivalent(delta, Incidence(delta.placement))
            grew = grew or delta.csr() is not exported
        # Sustained growth must eventually overflow the slack and force a
        # (correct) re-export with fresh capacity.
        assert grew

    def test_first_delta_never_writes_the_placement(self):
        placement = random_placement(9, 3, 20, 5)
        rows = bytes(placement.replica_array())
        node_off, node_objs = placement.node_csr()
        csr_bytes = bytes(node_off), bytes(node_objs)
        delta = Incidence(placement)
        tight = delta.csr()
        assert tight[3] is placement.replica_array()
        delta.apply_delta(added=[[6, 7, 8]], removed=[0, 4, 19])
        assert all(a is not b for a, b in zip(delta.csr(), tight))
        assert bytes(placement.replica_array()) == rows
        assert (bytes(node_off), bytes(node_objs)) == csr_bytes
        self._assert_csr_equivalent(delta, Incidence(delta.placement))

    def test_large_batch_grows_the_csr_once(self, monkeypatch):
        placement = random_placement(9, 3, 12, 6)
        delta = Incidence(placement)
        delta.apply_delta(added=[[0, 1, 2]])
        grows = []
        reserve = Incidence._reserve

        def counting_reserve(self, added, moved):
            before = self._csr
            reserve(self, added, moved)
            grows.append(self._csr is not before)

        monkeypatch.setattr(Incidence, "_reserve", counting_reserve)
        rng = random.Random(7)
        batch = [sorted(rng.sample(range(9), 3)) for _ in range(200)]
        delta.apply_delta(added=batch, removed=[1, 5])
        assert grows == [True]
        self._assert_csr_equivalent(delta, Incidence(delta.placement))
        # Sized for the whole batch plus headroom: the next small batch
        # lands in place.
        delta.apply_delta(added=batch[:5])
        assert grows == [True, False]

    def test_swap_with_last_semantics(self):
        placement = Placement.from_replica_sets(
            6, [[0, 1], [1, 2], [2, 3], [3, 4]]
        )
        delta = Incidence(placement)
        current = delta.apply_delta(removed=[1])
        # Object 3 (the last) moved into slot 1.
        assert current.replica_sets == (
            frozenset({0, 1}), frozenset({3, 4}), frozenset({2, 3})
        )

    def test_removing_the_last_object_pops(self):
        placement = Placement.from_replica_sets(6, [[0, 1], [1, 2], [2, 3]])
        delta = Incidence(placement)
        current = delta.apply_delta(removed=[2])
        assert current.replica_sets == (frozenset({0, 1}), frozenset({1, 2}))

    def test_validation(self):
        placement = Placement.from_replica_sets(6, [[0, 1], [1, 2]])
        delta = Incidence(placement)
        with pytest.raises(ValueError):
            delta.apply_delta(added=[[0]])  # wrong r
        with pytest.raises(ValueError):
            delta.apply_delta(added=[[0, 0]])  # duplicate node
        with pytest.raises(ValueError):
            delta.apply_delta(added=[[0, 9]])  # out of range
        with pytest.raises(ValueError):
            delta.apply_delta(removed=[5])  # unknown id
        with pytest.raises(ValueError):
            delta.apply_delta(removed=[0, 0])  # duplicate removal
        with pytest.raises(ValueError):
            delta.apply_delta(removed=[0, 1])  # would empty the placement

    def test_move_validation(self):
        placement = Placement.from_replica_sets(6, [[0, 1], [1, 2], [2, 3]])
        delta = Incidence(placement)
        for moved in (
            [(3, 0, 4)],  # unknown id
            [(0, 2, 4)],  # no replica on node 2
            [(0, 0, 1)],  # node 1 already hosts a replica
            [(0, 0, 6)],  # out of range
            [(0, 0, 4), (0, 0, 5)],  # the first move took node 0 away
        ):
            with pytest.raises(ValueError):
                delta.apply_delta(moved=moved)
        assert csr_object_nodes(delta) == [(0, 1), (1, 2), (2, 3)]
        # A chain of moves of one object in one batch is valid.
        delta.apply_delta(moved=[(0, 0, 4), (0, 4, 5), (2, 2, 0)])
        assert csr_object_nodes(delta) == [(1, 5), (1, 2), (0, 3)]
        assert_offsets_consistent(delta)


@pytest.mark.parametrize(
    "backing", available_gain_backings(), ids=lambda backing: f"gain-{backing}"
)
class TestDeltaMoves:
    """In-place replica moves interleaved with arrivals and departures.

    After each batch the offset index agrees with the segments, every node
    segment holds the cold incidence's ids (as a multiset; the order
    differs), rows match an independent model, and attacks — evaluation
    counts included — equal a cold engine's, so no result depends on the
    order of ids inside a segment.
    """

    def test_moves_match_a_cold_engine(self, backing):
        rng = random.Random(606)
        n, r = 13, 3
        placement = random_placement(n, r, 34, 12)
        model = [list(row) for row in csr_object_nodes(Incidence(placement))]
        engine = AttackEngine(placement, gain_backing=backing)
        attacks = 0
        for step in range(30):
            moved = random_moves(rng, model, n, rng.randrange(0, 6))
            added, removed = random_delta(rng, len(model), n, r)
            if not (moved or added or removed):
                continue
            engine.apply_delta(
                added_objects=added, removed_objects=removed,
                moved_replicas=moved,
            )
            apply_to_model(model, added, removed)
            incidence = engine.incidence
            assert_offsets_consistent(incidence)
            assert csr_object_nodes(incidence) == [
                tuple(sorted(row)) for row in model
            ]
            cold = Incidence(engine.placement)
            assert [sorted(ids) for ids in csr_node_objects(incidence)] == [
                sorted(ids) for ids in csr_node_objects(cold)
            ]
            if step % 2:
                cell = AttackCell(
                    rng.choice((2, 3)), rng.choice((1, 2)),
                    "exact" if step % 4 == 3 else "fast",
                )
                cold_engine = AttackEngine(
                    engine.placement, gain_backing=backing
                )
                assert engine.attack(cell, seed=5) == cold_engine.attack(
                    cell, seed=5
                )
                attacks += 1
        assert attacks >= 10


@pytest.mark.parametrize(
    "backing", available_gain_backings(), ids=lambda backing: f"gain-{backing}"
)
class TestDeltaEngineBitForBit:
    """Delta-updated engines pinned against cold-built ones."""

    def test_interleaved_churn_and_attacks(self, backing):
        rng = random.Random(202)
        placement = random_placement(13, 3, 36, 2)
        engine = AttackEngine(placement, gain_backing=backing)
        attacks = 0
        for step in range(36):
            added, removed = random_delta(rng, engine.placement.b, 13, 3)
            if added or removed:
                engine.apply_delta(
                    added_objects=added, removed_objects=removed
                )
            if step % 3 == 2:
                k = rng.choice((2, 3))
                s = rng.choice((1, 2))
                effort = "exact" if step % 6 == 5 else "fast"
                cell = AttackCell(k, s, effort)
                cold = AttackEngine(engine.placement, gain_backing=backing)
                assert engine.attack(cell, seed=9) == cold.attack(cell, seed=9)
                attacks += 1
        assert attacks >= 10

    def test_interleaved_churn_and_uncached_attacks(self, backing):
        # Chain batches must size their scratch state from the *current*
        # (delta-rebound) shape, not the cold build — churn that changes
        # b resizes the state block. Every attack after churn must match
        # a cold engine.
        rng = random.Random(404)
        placement = random_placement(13, 3, 32, 9)
        engine = AttackEngine(placement, gain_backing=backing)
        attacks = 0
        for step in range(24):
            added, removed = random_delta(rng, engine.placement.b, 13, 3)
            if added or removed:
                engine.apply_delta(
                    added_objects=added, removed_objects=removed
                )
            if step % 3 == 2:
                cell = AttackCell(rng.choice((2, 3)), rng.choice((1, 2)), "fast")
                cold = AttackEngine(engine.placement, gain_backing=backing)
                assert engine.attack(cell, seed=9) == cold.attack(cell, seed=9)
                attacks += 1
        assert attacks >= 6

    def test_warm_chain_matches_cold(self, backing):
        placement = random_placement(12, 3, 30, 3)
        engine = AttackEngine(placement, gain_backing=backing)
        engine.apply_delta(added_objects=[[0, 1, 2], [4, 5, 6]],
                           removed_objects=[1, 8])
        cold = AttackEngine(engine.placement, gain_backing=backing)
        warm = None
        for k in (2, 3, 4):
            cell = AttackCell(k, 2, "fast")
            mine = engine.attack(cell, seed=4, warm_start=warm)
            assert mine == cold.attack(cell, seed=4, warm_start=warm)
            warm = mine.nodes


class TestDeltaEngineLifecycle:
    def test_kernels_survive_deltas_when_rebindable(self):
        placement = random_placement(12, 3, 30, 7)
        engine = AttackEngine(placement, gain_backing="python")
        kernel = engine.kernel(2)
        engine.apply_delta(added_objects=[[2, 3, 4]])  # the copy to padded
        assert engine.kernel(2) is kernel  # rebound, not rebuilt
        engine.apply_delta(added_objects=[[5, 6, 7]], removed_objects=[0])
        assert engine.kernel(2) is kernel  # absorbed in place
        assert kernel.b == engine.placement.b

    def test_delta_engine_attack_grid_spans_thresholds(self):
        placement = random_placement(11, 3, 28, 8)
        engine = AttackEngine(placement)
        engine.apply_delta(added_objects=[[0, 1, 2]], removed_objects=[2])
        for s in (1, 2, 3):
            cold = AttackEngine(engine.placement)
            cell = AttackCell(2, s, "exact")
            assert engine.attack(cell, seed=0) == cold.attack(cell, seed=0)
