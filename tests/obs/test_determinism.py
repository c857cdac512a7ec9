"""The tentpole acceptance property: deterministic counters are pinned.

For a fixed spec and seed, the deterministic instrument snapshot (the
manifest ``"obs"`` record) must be bit-identical across every gain
backing and worker count — and invariant under
chaos plans whose retries succeed. Semantic work is a property of the
experiment, not of the machinery that ran it.
"""

import json
import random

import pytest

from repro import faults, obs
from repro.analysis import fig2
from repro.core import native
from repro.core.kernels import GAIN_BACKINGS
from repro.exp.runner import run_experiment
from repro.exp.store import RunStore
from repro.sim import LifetimeSimulator, SimConfig

WORKER_COUNTS = (1, 2)


def available_gain_backings():
    return [
        backing
        for backing in GAIN_BACKINGS
        if backing != "native" or native.available()
    ]


def _spec():
    return fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=4)


def _det_delta(workers):
    """One fresh instrumented run; returns its deterministic delta."""
    obs.reset_metrics()
    obs.set_metrics(True)
    mark = obs.checkpoint()
    run = run_experiment(_spec(), workers=workers)
    det = obs.deterministic_delta(mark)
    assert run.obs == det
    return det


class TestSnapshotIdentity:
    def test_identical_across_backings_workers(self, monkeypatch):
        reference = None
        reference_key = None
        for backing in available_gain_backings():
            monkeypatch.setenv("REPRO_GAIN_BACKING", backing)
            for workers in WORKER_COUNTS:
                det = _det_delta(workers)
                key = (backing, workers)
                if reference is None:
                    reference, reference_key = det, key
                    assert det["counters"]["attack.searches"] > 0
                else:
                    assert json.dumps(det, sort_keys=True) == (
                        json.dumps(reference, sort_keys=True)
                    ), (key, reference_key)

    def test_invariant_under_absorbed_chaos_retries(self, tmp_path):
        obs.reset_metrics()
        obs.set_metrics(True)
        mark = obs.checkpoint()
        run_experiment(
            _spec(), store=RunStore(str(tmp_path / "baseline")), workers=2
        )
        baseline = obs.deterministic_delta(mark)

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
        for workers in WORKER_COUNTS:
            faults.configure(plan)
            obs.reset_metrics()
            obs.set_metrics(True)
            mark = obs.checkpoint()
            store = RunStore(str(tmp_path / f"w{workers}"))
            run = run_experiment(_spec(), store=store, workers=workers)
            det = obs.deterministic_delta(mark)
            faults.clear()
            assert run.retries >= 1  # chaos actually bit
            # ...and left no trace in the pinned snapshot.
            assert det == baseline

    def test_simulator_counters_identical_across_backings(self, monkeypatch):
        config = SimConfig(
            n=13, r=3, s=2, k=2, events=200, seed=9, racks=3,
            strike_period=8.0, measure_period=8.0, effort="fast",
        )
        reference = None
        for backing in available_gain_backings():
            monkeypatch.setenv("REPRO_GAIN_BACKING", backing)
            obs.reset_metrics()
            obs.set_metrics(True)
            mark = obs.checkpoint()
            LifetimeSimulator(config).run()
            det = obs.deterministic_delta(mark)
            if reference is None:
                reference = det
                assert det["counters"]["sim.strikes"] > 0
            else:
                assert det == reference, backing


class TestStoreByteIdentity:
    def test_instrumented_store_matches_uninstrumented(self, tmp_path):
        spec = _spec()
        plain_store = RunStore(str(tmp_path / "plain"))
        assert not obs.metrics_enabled()
        plain = run_experiment(spec, store=plain_store, workers=2)

        obs.set_metrics(True)
        instrumented_store = RunStore(str(tmp_path / "obs"))
        instrumented = run_experiment(spec, store=instrumented_store, workers=2)

        with open(plain_store.cells_file(spec), "rb") as handle:
            plain_bytes = handle.read()
        with open(instrumented_store.cells_file(spec), "rb") as handle:
            instrumented_bytes = handle.read()
        assert instrumented_bytes == plain_bytes

        def manifest(store):
            import os

            path = os.path.join(store.run_path(spec), "manifest.json")
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)

        plain_manifest = manifest(plain_store)
        instrumented_manifest = manifest(instrumented_store)
        assert "obs" not in plain_manifest
        assert instrumented_manifest.pop("obs")
        assert instrumented_manifest == plain_manifest
        assert instrumented.result() == plain.result()
