"""The instrument hooks wired through the stack actually count."""

import json
import os
import random

import pytest

from repro import faults, obs
from repro.analysis import fig2
from repro.core import artifact
from repro.core.adversary import best_attack
from repro.core.batch import AttackCell, AttackEngine, batch_attack
from repro.core.random_placement import RandomStrategy
from repro.exp.runner import run_experiment
from repro.exp.store import RunStore
from repro.obs.report import render_metrics
from repro.sim import LifetimeSimulator, SimConfig
from repro.util import lazynumpy


def _placement(seed=3):
    return RandomStrategy(13, 3).place(40, random.Random(seed))


def _small_fig2_spec():
    return fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=4)


def _manifest(store, spec):
    path = os.path.join(store.run_path(spec), "manifest.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestAdversaryCounts:
    def test_best_attack_counts_search_and_evaluations(self, metrics_on):
        result = best_attack(_placement(), k=2, s=2, effort="fast")
        assert obs.counter_value("attack.searches") == 1
        assert obs.counter_value("kernel.evaluations") == result.evaluations
        hist = obs.snapshot()["histograms"]["attack.damage"]
        assert hist["count"] == 1
        assert hist["sum"] == result.damage

    def test_local_search_counts_node_moves(self, metrics_on):
        best_attack(_placement(), k=3, s=2, effort="fast")
        snap = obs.snapshot()["counters"]
        # Polish passes re-place every node; swaps only when one moved.
        assert snap["kernel.node_adds"] > 0
        assert snap["kernel.node_removes"] > 0
        assert snap["kernel.node_adds"] >= snap.get("kernel.swaps", 0)

    def test_exact_effort_counts_bnb_moves(self, metrics_on):
        best_attack(_placement(), k=2, s=2, effort="exact")
        snap = obs.snapshot()["counters"]
        # The warm-up incumbent adds without removing; tree moves pair up.
        assert snap["kernel.node_adds"] >= snap["kernel.node_removes"] > 0


class TestEngineCounts:
    def test_every_engine_construction_counts_a_build(self, metrics_on):
        AttackEngine(_placement())
        AttackEngine(_placement())
        assert obs.counter_value("engine.builds") == 2

    def test_multi_threshold_grid_builds_one_engine(self, metrics_on):
        cells = [AttackCell(k, s, "fast") for s in (1, 2, 3) for k in (2, 3)]
        batch_attack(_placement(), cells, seed=5)
        assert obs.counter_value("engine.builds") == 1

    def test_repeat_grid_records_the_same_counters(self, metrics_on):
        # Counters describe the call, not the history of the process:
        # a repeated grid searches again and counts the same work.
        placement = _placement()
        cells = [AttackCell(k, s, "fast") for s in (1, 2) for k in (2, 3, 4)]
        deltas = []
        for _ in range(2):
            mark = obs.checkpoint()
            batch_attack(placement, cells, seed=9)
            deltas.append({
                name: obs.delta_value(name, mark)
                for name in ("attack.searches", "kernel.evaluations")
            })
        assert deltas[0] == deltas[1]
        assert deltas[0]["attack.searches"] == len(cells)

    def test_worker_deltas_merge_to_one_report_in_any_order(
        self, metrics_on
    ):
        # Two workers end a run having built different numbers of
        # engines; the supervisor merges their deltas in completion
        # order, which varies run to run. The merged report must not.
        deltas = []
        for seeds in ((1, 2), (3,)):
            mark = obs.checkpoint()
            for seed in seeds:
                AttackEngine(_placement(seed))
            deltas.append(obs.delta_since(mark))
        reports = []
        for order in (deltas, deltas[::-1]):
            obs.reset_metrics()
            for delta in order:
                obs.merge_delta(delta)
            reports.append(render_metrics(obs.snapshot()))
        assert reports[0] == reports[1]


class TestStoreCounts:
    def test_commits_counted_and_snapshotted_in_manifest(
        self, metrics_on, tmp_path
    ):
        spec = _small_fig2_spec()
        store = RunStore(str(tmp_path))
        run = run_experiment(spec, store=store)
        assert obs.counter_value("store.cells_committed") == run.computed > 0
        hist = obs.snapshot()["histograms"]["store.commit_bytes"]
        assert hist["count"] == run.computed
        manifest = _manifest(store, spec)
        assert manifest["obs"] == run.obs
        assert manifest["obs"]["counters"]["store.cells_committed"] == run.computed
        assert "attack.searches" in manifest["obs"]["counters"]
        # Ops counters never enter the pinned snapshot.
        assert "engine.builds" not in manifest["obs"]["counters"]

    def test_metrics_off_leaves_manifest_untouched(self, tmp_path):
        spec = _small_fig2_spec()
        store = RunStore(str(tmp_path))
        run = run_experiment(spec, store=store)
        assert run.obs is None
        assert "obs" not in _manifest(store, spec)

    def test_resume_counts_loaded_cells(self, metrics_on, tmp_path):
        spec = _small_fig2_spec()
        store = RunStore(str(tmp_path))
        partial = run_experiment(spec, store=store, limit=4)
        obs.reset_metrics()
        obs.set_metrics(True)
        resumed = run_experiment(spec, store=store, resume=True)
        assert obs.counter_value("store.cells_loaded") == partial.computed
        assert resumed.loaded == partial.computed


class TestRetrySingleSource:
    def test_summary_manifest_and_counter_agree(self, metrics_on, tmp_path):
        plan = faults.FaultPlan.from_dict(
            {
                "seed": 7,
                "rules": [
                    {
                        "site": "runner.shard_start",
                        "kind": "error",
                        "when": {"attempt": 0},
                    }
                ],
            }
        )
        faults.configure(plan)
        mark = obs.checkpoint()
        spec = _small_fig2_spec()
        store = RunStore(str(tmp_path))
        run = run_experiment(spec, store=store, workers=2)
        # One source of truth: the always-on counter feeds RunResult,
        # the summary line, and the manifest faults record alike.
        counted = obs.delta_value("runner.shard_retries", mark)
        assert run.retries == counted >= 1
        assert _manifest(store, spec)["faults"]["shard_retries"] == counted
        assert f"{counted} shard retries" in run.summary()
        assert any(
            e["event"] == "runner.shard_retry" for e in obs.events()
        )

    def test_serial_retries_count_in_process(self, metrics_on, tmp_path):
        plan = faults.FaultPlan.from_dict(
            {
                "seed": 7,
                "rules": [
                    {
                        "site": "runner.shard_start",
                        "kind": "error",
                        "when": {"attempt": 0},
                    }
                ],
            }
        )
        faults.configure(plan)
        mark = obs.checkpoint()
        run = run_experiment(
            _small_fig2_spec(), store=RunStore(str(tmp_path)), workers=1
        )
        counted = obs.delta_value("runner.shard_retries", mark)
        assert run.retries == counted >= 1
        # In-process faults reach the always-on counter directly; a
        # sharded worker's would die with the failed attempt instead.
        assert obs.delta_value("faults.injected", mark) == counted


class TestArtifactFallback:
    @pytest.mark.skipif(
        not lazynumpy.installed(), reason="save_npz needs numpy"
    )
    def test_mmap_fallback_counts_and_warns_once(
        self, metrics_on, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "p.npz")
        artifact.save_npz(_placement(), path)

        def refuse(path, validate):
            raise OSError("no mmap on this filesystem")

        monkeypatch.setattr(artifact, "_load_npz_mmap", refuse)
        monkeypatch.setattr(artifact, "_MMAP_FALLBACK_WARNED", set())
        with pytest.warns(RuntimeWarning, match="falling back"):
            first = artifact.load_npz(path, mmap=True)
        # Second fallback for the same reason: counted, not re-warned.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            again = artifact.load_npz(path, mmap=True)
        assert first == again
        assert obs.counter_value("artifact.mmap_fallback") == 2
        events = [
            e for e in obs.events() if e["event"] == "artifact.mmap_fallback"
        ]
        assert len(events) == 1
        assert "OSError" in events[0]["fields"]["reason"]


class TestSimulatorCounts:
    def test_events_and_strikes(self, metrics_on):
        config = SimConfig(
            n=13, r=3, s=2, k=2, events=200, seed=9, racks=3,
            strike_period=8.0, measure_period=8.0, effort="fast",
        )
        report = LifetimeSimulator(config).run()
        snap = obs.snapshot()["counters"]
        assert snap["sim.events"] == config.events
        assert snap["sim.strikes"] == len(report.strikes)
        assert snap["sim.strikes"] == (
            snap.get("sim.strikes.delta", 0)
            + snap.get("sim.strikes.rebuild", 0)
        )
