"""Affinity pool: deterministic routing, bit-identity with serial."""

import pytest

from repro import faults
from repro.analysis import fig2
from repro.exp.registry import kernel as experiment_kernel
from repro.exp.runner import (
    _affinity_plan,
    _contiguous_groups,
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


class TestAffinityPlan:
    def test_plan_is_deterministic_and_covers_every_shard_once(self):
        spec = _spec()
        definition, cells, groups = _cells_and_groups(spec)
        first = _affinity_plan(spec, definition, cells, groups, 3)
        second = _affinity_plan(spec, definition, cells, groups, 3)
        assert first == second
        dispatched = sorted(o for bucket in first for o in bucket)
        assert dispatched == list(range(len(groups)))

    def test_affinity_classes_are_never_split_across_workers(self):
        # fig2's affinity key is b: every shard attacking one placement
        # must land on one worker so its engine cache serves them all.
        spec = _spec()
        definition, cells, groups = _cells_and_groups(spec)
        assert definition.affinity is not None
        plan = _affinity_plan(spec, definition, cells, groups, 3)
        home = {}
        for slot, bucket in enumerate(plan):
            for ordinal in bucket:
                group = groups[ordinal]
                key = definition.affinity(
                    spec, group.key, cells[group.start:group.end]
                )
                assert home.setdefault(key, slot) == slot

    def test_single_slot_gets_everything(self):
        spec = _spec()
        definition, cells, groups = _cells_and_groups(spec)
        (bucket,) = _affinity_plan(spec, definition, cells, groups, 1)
        assert sorted(bucket) == list(range(len(groups)))

    def test_fig7_declares_placement_affinity(self):
        from repro.analysis import fig7  # noqa: F401 - registers the kernel

        assert experiment_kernel("fig7").affinity is not None


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
