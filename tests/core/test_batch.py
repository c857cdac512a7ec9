"""Tests for the batched attack engine."""

import random

import pytest

from repro import obs
from repro.core.adversary import best_attack, damage
from repro.core.availability import evaluate_availability
from repro.core.batch import AttackCell, AttackEngine, batch_attack
from repro.core.kernels import GAIN_BACKINGS, resolve_gain_backing
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
    """Every engine resolves its gain backing when it is built; nothing
    is kept between calls."""

    def test_gain_backing_pin_is_honoured_after_warmup(self, monkeypatch):
        # Re-pinning REPRO_GAIN_BACKING mid-process takes effect on the
        # next call, whatever was built before it.
        placement = random_placement(12, 3, 40, 30)
        cells = [AttackCell(2, 2, "fast")]
        monkeypatch.setenv("REPRO_GAIN_BACKING", "python")
        assert AttackEngine(placement).kernel(2).backing == "python"
        other = resolve_gain_backing("auto")
        if other == "python":  # pragma: no cover - no compiler
            pytest.skip("only the python gain backing is available")
        before = batch_attack(placement, cells, seed=3)
        monkeypatch.setenv("REPRO_GAIN_BACKING", other)
        obs.set_metrics(True)
        try:
            mark = obs.checkpoint()
            after = batch_attack(placement, cells, seed=3)
            assert obs.delta_value(f"kernel.dispatch.{other}", mark) == 1
            assert obs.delta_value("kernel.dispatch.python", mark) == 0
        finally:
            obs.set_metrics(None)
        assert after == before


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
