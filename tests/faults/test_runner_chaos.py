"""Supervised runner under chaos: retries, watchdog, identity."""

import json
import os

import pytest

from repro import faults, obs
from repro.analysis import fig2
from repro.core import kernels
from repro.exp.runner import ExperimentError, run_experiment
from repro.exp.store import RunStore
from repro.faults import FaultPlan


def _spec():
    return fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=4)


def _shard_starts(spec):
    from repro.exp.registry import kernel as experiment_kernel
    from repro.exp.runner import _contiguous_groups

    definition = experiment_kernel(spec.experiment)
    cells = [dict(cell) for cell in definition.expand(spec)]
    return [group.start for group in _contiguous_groups(spec, definition, cells)]


def _chaos_env(plan, monkeypatch):
    """Export the plan so fork-inherited shard workers see it too."""
    monkeypatch.setenv("REPRO_CHAOS", plan.canonical_json())
    faults.clear()  # drop any configure() override; env rules now


class TestCrashRetry:
    def test_crashed_shard_is_redispatched_bit_identically(
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        start = _shard_starts(spec)[1]
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "crash",
            "when": {"start": start, "attempt": 0, "mode": "shard"},
            "times": 1,
        }])
        _chaos_env(plan, monkeypatch)
        store = RunStore(str(tmp_path / "chaos"))
        run = run_experiment(spec, workers=3, store=store)
        assert run.complete
        assert run.retries >= 1
        assert f"[{run.retries} shard retries]" in run.summary()

        monkeypatch.delenv("REPRO_CHAOS")
        reference = run_experiment(
            spec, workers=3, store=RunStore(str(tmp_path / "clean"))
        )
        with open(store.cells_file(spec), "rb") as handle:
            chaos_bytes = handle.read()
        with open(
            RunStore(str(tmp_path / "clean")).cells_file(spec), "rb"
        ) as handle:
            clean_bytes = handle.read()
        assert chaos_bytes == clean_bytes
        assert run.result() == reference.result()

    def test_retries_are_recorded_in_the_manifest(
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        start = _shard_starts(spec)[0]
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "crash",
            "when": {"start": start, "attempt": 0, "mode": "shard"},
            "times": 1,
        }])
        _chaos_env(plan, monkeypatch)
        store = RunStore(str(tmp_path))
        run = run_experiment(spec, workers=3, store=store)
        manifest_path = os.path.join(store.run_path(spec), "manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["faults"]["shard_retries"] == run.retries >= 1

    def test_fault_free_manifest_has_no_faults_key(self, tmp_path):
        spec = _spec()
        store = RunStore(str(tmp_path))
        run_experiment(spec, workers=3, store=store)
        manifest_path = os.path.join(store.run_path(spec), "manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            assert "faults" not in json.load(handle)

    def test_exhausted_retries_fail_the_run(self, monkeypatch):
        spec = _spec()
        start = _shard_starts(spec)[0]
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "error",
            "when": {"start": start, "mode": "shard"},
        }])
        _chaos_env(plan, monkeypatch)
        with pytest.raises(ExperimentError, match="failed after"):
            run_experiment(spec, workers=3, shard_retries=1)


class TestShardStartError:
    def test_shard_start_error_in_a_pool_shard_is_retried_by_the_supervisor(
        self, tmp_path, monkeypatch, capsys
    ):
        # Each forked worker fires the rule on its first shard, before
        # any of that shard's cells are done; the error reaches the
        # supervisor, which re-dispatches the shard and says so.
        spec = _spec()
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "error", "times": 1,
        }])
        _chaos_env(plan, monkeypatch)
        store = RunStore(str(tmp_path / "chaos"))
        run = run_experiment(spec, workers=3, store=store)
        assert run.complete
        assert run.retries >= 1
        retry_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("runner: shard retry")
        ]
        assert len(retry_lines) == run.retries
        assert all(
            "InjectedFault: injected error fault at runner.shard_start" in line
            for line in retry_lines
        )

        monkeypatch.delenv("REPRO_CHAOS")
        clean = RunStore(str(tmp_path / "clean"))
        run_experiment(spec, workers=3, store=clean)
        with open(store.cells_file(spec), "rb") as handle:
            chaos_bytes = handle.read()
        with open(clean.cells_file(spec), "rb") as handle:
            assert handle.read() == chaos_bytes


class TestWatchdog:
    def test_hung_shard_is_killed_and_retried(self, tmp_path, monkeypatch):
        spec = _spec()
        start = _shard_starts(spec)[0]
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "hang",
            "when": {"start": start, "attempt": 0, "mode": "shard"},
            "times": 1, "args": {"seconds": 60.0},
        }])
        _chaos_env(plan, monkeypatch)
        store = RunStore(str(tmp_path / "chaos"))
        run = run_experiment(
            spec, workers=3, store=store, shard_timeout=1.0
        )
        assert run.complete
        assert run.retries >= 1

        monkeypatch.delenv("REPRO_CHAOS")
        run_experiment(spec, workers=3, store=RunStore(str(tmp_path / "b")))
        with open(store.cells_file(spec), "rb") as handle:
            chaos_bytes = handle.read()
        with open(
            RunStore(str(tmp_path / "b")).cells_file(spec), "rb"
        ) as handle:
            assert handle.read() == chaos_bytes

    def test_bad_timeout_env_is_rejected_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_SHARD_TIMEOUT"):
            run_experiment(_spec(), workers=3)

    def test_bad_retries_env_is_rejected_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_RETRIES", "-1")
        with pytest.raises(ValueError, match="REPRO_SHARD_RETRIES"):
            run_experiment(_spec(), workers=3)


class TestOneBackingPerProcess:
    def test_repeated_crashes_keep_the_backing(self, tmp_path, monkeypatch):
        """Two worker deaths on one shard are retried on the backing the
        process chose at start; nothing steps it down."""
        monkeypatch.delenv("REPRO_GAIN_BACKING", raising=False)
        before = kernels.resolve_gain_backing()
        spec = _spec()
        start = _shard_starts(spec)[0]
        plan = FaultPlan.build([
            {"site": "runner.shard_start", "kind": "crash",
             "when": {"start": start, "attempt": attempt, "mode": "shard"},
             "times": 1}
            for attempt in (0, 1)
        ])
        _chaos_env(plan, monkeypatch)
        monkeypatch.setenv("REPRO_METRICS", "1")
        obs.set_metrics(True)
        try:
            mark = obs.checkpoint()
            store = RunStore(str(tmp_path / "chaos"))
            run = run_experiment(spec, workers=3, store=store, shard_retries=3)
            dispatched = {
                backing: obs.delta_value("kernel.dispatch." + backing, mark)
                for backing in kernels.GAIN_BACKINGS
            }
        finally:
            obs.set_metrics(None)
        assert run.complete
        assert run.retries == 2
        assert kernels.resolve_gain_backing() == before
        assert dispatched[before] > 0
        if before == "native":
            assert dispatched["python"] == 0

        manifest_path = os.path.join(store.run_path(spec), "manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["faults"] == {"shard_retries": 2}

        monkeypatch.delenv("REPRO_CHAOS")
        clean = RunStore(str(tmp_path / "clean"))
        run_experiment(spec, workers=1, store=clean)
        with open(store.cells_file(spec), "rb") as handle:
            chaos_bytes = handle.read()
        with open(clean.cells_file(spec), "rb") as handle:
            assert handle.read() == chaos_bytes


class TestSerialPath:
    def test_serial_runs_retry_transient_faults(self, monkeypatch):
        spec = _spec()
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "error",
            "when": {"mode": "serial", "attempt": 0}, "times": 2,
        }])
        _chaos_env(plan, monkeypatch)
        run = run_experiment(spec, workers=1)
        assert run.complete
        assert run.retries >= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_real_exceptions_are_not_retried(self, workers, capsys):
        """A genuine kernel exception ends the run at once, serial or
        pooled: same exception type, no retry line."""
        from repro.exp.registry import ExperimentKernel, register_kernel
        from repro.exp.spec import ExperimentSpec

        calls = []

        def explode(spec, cells):
            calls.append(1)
            raise RuntimeError("genuine bug, not chaos")

        # Forked pool workers inherit this in-process registration.
        register_kernel(ExperimentKernel(
            name="_test_explode",
            expand=lambda spec: [{"i": 0}, {"i": 1}],
            group_key=lambda spec, cell: cell["i"],
            run_group=explode,
            assemble=lambda spec, cells, metrics: None,
            render=lambda result: "",
        ))
        spec = ExperimentSpec.build("_test_explode", axes={"i": (0, 1)})
        # ExperimentError is a ValueError, so it cannot pass this check.
        with pytest.raises(RuntimeError, match="genuine bug"):
            run_experiment(spec, workers=workers, shard_retries=5)
        assert "runner: shard retry" not in capsys.readouterr().err
        if workers == 1:
            assert len(calls) == 1  # the second shard never started
