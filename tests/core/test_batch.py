"""Tests for the batched attack engine."""

import random

import pytest

from repro.core import batch
from repro.core.adversary import best_attack, damage
from repro.core.availability import evaluate_availability
from repro.core.batch import (
    AttackCell,
    attack_cache_stats,
    batch_attack,
    clear_attack_caches,
    engine_for,
)
from repro.core.kernels import GAIN_BACKINGS, resolve_gain_backing
from repro.core.placement import Placement
from repro.core.random_placement import RandomStrategy
from repro.core.simple import SimpleStrategy
from repro.exp.runner import worker_count


def random_placement(n, r, b, seed):
    return RandomStrategy(n, r).place(b, random.Random(seed))


class TestBatchAttack:
    def test_results_align_with_cells(self):
        placement = random_placement(12, 3, 40, 0)
        cells = [
            AttackCell(3, 2, "exact"),
            AttackCell(2, 1, "exact"),
            AttackCell(2, 2, "exact"),
        ]
        results = batch_attack(placement, cells)
        assert len(results) == 3
        for cell, attack in zip(cells, results):
            assert len(attack.nodes) == cell.k
            assert damage(placement, attack.nodes, cell.s) == attack.damage
            assert attack.exact

    def test_damage_monotone_in_k_and_s(self):
        # Over a full (k, s) grid, damage grows with k and shrinks with s.
        placement = SimpleStrategy(13, 3, 1).place(26)
        ks, ss = (2, 3, 4), (1, 2, 3)
        cells = [AttackCell(k, s, "exact") for s in ss for k in ks]
        grid = {
            (cell.k, cell.s): attack.damage
            for cell, attack in zip(cells, batch_attack(placement, cells))
        }
        for s in ss:
            assert [grid[(k, s)] for k in ks] == sorted(grid[(k, s)] for k in ks)
        for k in ks:
            column = [grid[(k, s)] for s in ss]
            assert column == sorted(column, reverse=True)

    def test_matches_unbatched_exact_search(self):
        placement = random_placement(11, 3, 35, 1)
        cells = [AttackCell(k, s, "exact") for s in (1, 2) for k in (2, 3)]
        batched = batch_attack(placement, cells)
        for cell, attack in zip(cells, batched):
            solo = best_attack(placement, cell.k, cell.s, effort="exact")
            assert attack.damage == solo.damage

    def test_incumbent_chaining_is_monotone(self):
        # More failures never kill fewer objects within one threshold group.
        placement = random_placement(20, 3, 120, 2)
        cells = [AttackCell(k, 2, "fast") for k in range(2, 7)]
        results = batch_attack(placement, cells)
        damages = [attack.damage for attack in results]
        assert damages == sorted(damages)

    def test_deterministic_replay(self):
        placement = random_placement(16, 3, 60, 3)
        cells = [AttackCell(k, s, "fast") for s in (1, 2) for k in (2, 3, 4)]
        first = batch_attack(placement, cells, seed=7)
        second = batch_attack(placement, cells, seed=7)
        assert first == second

    def test_empty_grid(self):
        placement = random_placement(8, 3, 10, 4)
        assert batch_attack(placement, []) == []

    def test_cell_validation(self):
        placement = random_placement(8, 3, 10, 5)
        with pytest.raises(ValueError):
            batch_attack(placement, [AttackCell(0, 2)])
        with pytest.raises(ValueError):
            batch_attack(placement, [AttackCell(2, 9)])
        with pytest.raises(ValueError):
            batch_attack(placement, [AttackCell(2, 2, "extreme")])

    def test_backend_choice_does_not_change_results(self, monkeypatch):
        placement = random_placement(12, 3, 40, 7)
        cells = [AttackCell(k, 2, "fast") for k in (2, 3, 4)]
        per_backing = []
        for backing in GAIN_BACKINGS:
            try:
                resolve_gain_backing(backing)
            except ValueError:  # pragma: no cover - rung unavailable here
                continue
            monkeypatch.setenv("REPRO_GAIN_BACKING", backing)
            per_backing.append(batch_attack(placement, cells, seed=3))
        assert all(result == per_backing[0] for result in per_backing[1:])


class TestAvailabilityGrid:
    def test_reports_align(self):
        # Per-cell availability reports agree with the batched attacks.
        placement = random_placement(12, 3, 40, 8)
        cells = [AttackCell(3, 2, "exact"), AttackCell(2, 2, "exact")]
        attacks = batch_attack(placement, cells)
        reports = [
            evaluate_availability(placement, cell.k, cell.s, cell.effort)
            for cell in cells
        ]
        assert [(r.k, r.s) for r in reports] == [(3, 2), (2, 2)]
        for report, attack in zip(reports, attacks):
            assert report.available + report.attack.damage == placement.b
            assert report.attack.damage == attack.damage
            assert report.exact


class TestWarmEngine:
    """The persistent attack pipeline: engines cached per placement
    structure, attack results memoized per (cell, seed, warm chain)."""

    def setup_method(self):
        clear_attack_caches()

    def test_engine_shared_across_calls(self):
        placement = random_placement(12, 3, 40, 20)
        engine = engine_for(placement)
        assert engine_for(placement) is engine
        assert engine.kernel(2) is engine.kernel(2)

    def test_structurally_equal_placements_share_engine(self):
        placement = random_placement(12, 3, 40, 21)
        clone = Placement.from_dict(placement.to_dict())
        assert clone is not placement
        assert engine_for(clone) is engine_for(placement)

    def test_gain_backing_pin_is_honoured_after_warmup(self, monkeypatch):
        # Re-pinning REPRO_GAIN_BACKING mid-process must not silently
        # reuse an engine (and kernels) built under the previous backing.
        placement = random_placement(12, 3, 40, 30)
        monkeypatch.setenv("REPRO_GAIN_BACKING", "python")
        warm = engine_for(placement)
        assert warm.kernel(2).backing == "python"
        other = resolve_gain_backing("auto")
        if other == "python":  # pragma: no cover - no compiler
            pytest.skip("only the python gain backing is available")
        monkeypatch.setenv("REPRO_GAIN_BACKING", other)
        pinned = engine_for(placement)
        assert pinned is not warm
        assert pinned.kernel(2).backing == other

    def test_repeat_grid_served_from_memo(self):
        placement = random_placement(14, 3, 50, 23)
        cells = [AttackCell(k, 2, "fast") for k in (2, 3, 4)]
        first = batch_attack(placement, cells, seed=9)
        before = attack_cache_stats()
        second = batch_attack(placement, cells, seed=9)
        after = attack_cache_stats()
        assert second == first
        assert after["hits"] - before["hits"] == len(cells)
        assert after["misses"] == before["misses"]

    def test_memo_keyed_on_seed_and_cell(self):
        placement = random_placement(14, 3, 50, 24)
        cells = [AttackCell(3, 2, "fast")]
        batch_attack(placement, cells, seed=1)
        before = attack_cache_stats()
        batch_attack(placement, cells, seed=2)  # different derived rng
        batch_attack(placement, [AttackCell(3, 2, "exact")], seed=1)
        assert attack_cache_stats()["hits"] == before["hits"]

    def test_caller_rng_bypasses_memo(self):
        placement = random_placement(14, 3, 50, 27)
        cells = [AttackCell(3, 2, "fast")]
        first = batch_attack(placement, cells, rng=random.Random(0))
        before = attack_cache_stats()
        second = batch_attack(placement, cells, rng=random.Random(0))
        after = attack_cache_stats()
        assert second == first  # identical generator state, recomputed
        assert after["hits"] == before["hits"]

    def test_memoized_results_match_fresh_engine(self):
        placement = random_placement(14, 3, 50, 28)
        cells = [AttackCell(k, s, "fast") for s in (1, 2) for k in (2, 3)]
        warm = batch_attack(placement, cells, seed=6)
        warm_again = batch_attack(placement, cells, seed=6)
        clear_attack_caches()
        cold = batch_attack(placement, cells, seed=6)
        assert warm == warm_again == cold


class TestEngineCacheCap:
    def setup_method(self):
        clear_attack_caches()

    def test_lru_eviction_detaches_the_oldest_engine(self, monkeypatch):
        monkeypatch.setattr(batch, "_ENGINE_CACHE_CAP", 2)
        oldest = engine_for(random_placement(10, 3, 20, 40))
        engine_for(random_placement(10, 3, 22, 41))
        assert attack_cache_stats()["engines"] == 2
        engine_for(random_placement(10, 3, 24, 42))  # evicts `oldest`
        assert attack_cache_stats()["engines"] == 2
        # A detached engine is gone for good: the same structure now
        # cold-builds a fresh engine instead of resurrecting the old one.
        assert engine_for(oldest.placement) is not oldest

    def test_cache_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(batch, "_ENGINE_CACHE_CAP", 2)
        keep = random_placement(10, 3, 20, 43)
        warm = engine_for(keep)
        engine_for(random_placement(10, 3, 22, 44))
        engine_for(keep)  # refresh: `keep` is now most-recent
        engine_for(random_placement(10, 3, 24, 45))  # evicts the middle one
        assert engine_for(keep) is warm


class TestWorkerKnob:
    """``REPRO_WORKERS`` sizes the experiment runner's shard pool; the
    batch engine itself is always serial."""

    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert worker_count() == 4
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError,
                           match="REPRO_WORKERS must be >= 1, got 0"):
            worker_count()
