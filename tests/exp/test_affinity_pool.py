"""Shard pool: a deterministic LPT plan, bit-identity with serial."""

import pytest

from repro import faults
from repro.analysis import fig2
from repro.exp.registry import kernel as experiment_kernel
from repro.exp.runner import (
    _contiguous_groups,
    _lpt_plan,
    run_experiment,
)
from repro.exp.store import RunStore
from repro.faults import FaultPlan


def _spec():
    return fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=4)


def _cells_and_groups(spec):
    definition = experiment_kernel(spec.experiment)
    cells = [dict(cell) for cell in definition.expand(spec)]
    return definition, cells, _contiguous_groups(spec, definition, cells)


def _store_bytes(store, spec):
    with open(store.cells_file(spec), "rb") as handle:
        return handle.read()


class TestLptPlan:
    def test_plan_is_deterministic_and_covers_every_shard_once(self):
        spec = _spec()
        definition, cells, groups = _cells_and_groups(spec)
        first = _lpt_plan(spec, definition, cells, groups, 3)
        second = _lpt_plan(spec, definition, cells, groups, 3)
        assert first == second
        dispatched = sorted(o for bucket in first for o in bucket)
        assert dispatched == list(range(len(groups)))

    def test_heaviest_shard_first_onto_the_least_loaded_slot(self):
        spec = _spec()
        definition, cells, groups = _cells_and_groups(spec)
        costs = [
            definition.group_cost(spec, g.key, cells[g.start:g.end])
            for g in groups
        ]
        # Shards (b, s): (600, 2), (600, 3), (1200, 2), (1200, 3).
        assert costs == [1800, 1200, 3600, 2400]
        # 3600 -> slot 0, 2400 -> slot 1, 1800 -> slot 1 (2400 < 3600),
        # 1200 -> slot 0 (3600 < 4200): shards of one b are split.
        plan = _lpt_plan(spec, definition, cells, groups, 2)
        assert plan == [[2, 1], [3, 0]]

    def test_single_slot_gets_everything(self):
        spec = _spec()
        definition, cells, groups = _cells_and_groups(spec)
        (bucket,) = _lpt_plan(spec, definition, cells, groups, 1)
        assert sorted(bucket) == list(range(len(groups)))


class TestBitIdentity:
    @pytest.mark.parametrize("workers", (2, 3))
    def test_pool_matches_serial(self, workers, tmp_path):
        spec = _spec()
        serial = run_experiment(
            spec, workers=1, store=RunStore(str(tmp_path / "serial"))
        )
        pool_store = RunStore(str(tmp_path / "pool"))
        pooled = run_experiment(spec, workers=workers, store=pool_store)
        assert pooled.result() == serial.result()
        assert pooled.metrics == serial.metrics
        assert _store_bytes(pool_store, spec) == _store_bytes(
            RunStore(str(tmp_path / "serial")), spec
        )


class TestPoolSupervision:
    def _shard_starts(self, spec):
        _, cells, groups = _cells_and_groups(spec)
        return [group.start for group in groups]

    def _chaos_env(self, plan, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", plan.canonical_json())
        faults.clear()  # drop any configure() override; env rules now

    def test_crashed_worker_is_replaced_and_shard_retried(
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        start = self._shard_starts(spec)[1]
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "crash",
            "when": {"start": start, "attempt": 0, "mode": "shard"},
            "times": 1,
        }])
        self._chaos_env(plan, monkeypatch)
        store = RunStore(str(tmp_path / "chaos"))
        run = run_experiment(spec, workers=3, store=store)
        assert run.complete
        assert run.retries >= 1

        monkeypatch.delenv("REPRO_CHAOS")
        faults.clear()
        clean = RunStore(str(tmp_path / "clean"))
        reference = run_experiment(spec, workers=3, store=clean)
        assert _store_bytes(store, spec) == _store_bytes(clean, spec)
        assert run.result() == reference.result()

    def test_injected_error_is_retried_without_killing_the_worker(
        self, tmp_path, monkeypatch
    ):
        # An in-band error posts a result and keeps the persistent worker
        # alive; the shard retries on the same slot after backoff.
        spec = _spec()
        start = self._shard_starts(spec)[0]
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "error",
            "when": {"start": start, "attempt": 0, "mode": "shard"},
            "times": 1,
        }])
        self._chaos_env(plan, monkeypatch)
        store = RunStore(str(tmp_path / "chaos"))
        run = run_experiment(spec, workers=2, store=store)
        assert run.complete
        assert run.retries >= 1

        monkeypatch.delenv("REPRO_CHAOS")
        faults.clear()
        clean = RunStore(str(tmp_path / "clean"))
        run_experiment(spec, workers=2, store=clean)
        assert _store_bytes(store, spec) == _store_bytes(clean, spec)

    def test_hung_pool_worker_trips_the_watchdog(self, tmp_path, monkeypatch):
        spec = _spec()
        start = self._shard_starts(spec)[0]
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "hang",
            "when": {"start": start, "attempt": 0, "mode": "shard"},
            "times": 1, "args": {"seconds": 60.0},
        }])
        self._chaos_env(plan, monkeypatch)
        store = RunStore(str(tmp_path / "chaos"))
        run = run_experiment(
            spec, workers=3, store=store, shard_timeout=1.0
        )
        assert run.complete
        assert run.retries >= 1

        monkeypatch.delenv("REPRO_CHAOS")
        faults.clear()
        clean = RunStore(str(tmp_path / "clean"))
        run_experiment(spec, workers=3, store=clean)
        assert _store_bytes(store, spec) == _store_bytes(clean, spec)
