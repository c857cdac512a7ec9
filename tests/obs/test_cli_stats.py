"""The ``--stats``/``--trace`` flags and the ``repro stats`` command."""

import json
import os
import random
import re

import pytest

from repro import obs
from repro.analysis import fig2
from repro.cli import main
from repro.core.artifact import save_placement
from repro.core.random_placement import RandomStrategy
from repro.exp.runner import run_experiment
from repro.exp.store import RunStore


@pytest.fixture
def placement_path(tmp_path):
    placement = RandomStrategy(13, 3).place(40, random.Random(3))
    path = str(tmp_path / "p.json")
    save_placement(placement, path)
    return path


def _spec():
    return fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=4)


class TestStatsFlag:
    def test_attack_stats_reports_to_stderr(self, placement_path, capsys):
        assert main(
            ["attack", placement_path, "--k", "2", "--s", "2", "--stats"]
        ) == 0
        captured = capsys.readouterr()
        assert "attack nodes" in captured.out
        assert "metrics (this invocation)" in captured.err
        assert "attack.searches" in captured.err

    def test_attack_without_stats_stays_quiet(self, placement_path, capsys):
        assert main(["attack", placement_path, "--k", "2", "--s", "2"]) == 0
        assert "metrics" not in capsys.readouterr().err

    def test_identical_worker_runs_print_identical_stats(
        self, tmp_path, capsys
    ):
        # Three placements on two workers: one worker caches two engines,
        # the other one, and the shards finish in either order. Apart
        # from the summary line's wall time, the reports must agree.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "experiment": "fig2",
            "axes": {"b": [600, 1200, 1800], "s": [2]},
            "constants": {"b_cap": 9600, "effort": "fast", "k_max": 4,
                          "n": 71, "r": 3, "x": 1},
        }))
        reports = []
        for _ in range(3):
            assert main([
                "run", str(spec), "--workers", "2", "--no-store", "--stats",
            ]) == 0
            err = capsys.readouterr().err
            assert "metrics (this invocation)" in err
            reports.append(re.sub(r" in [0-9.]+s$", "", err, flags=re.M))
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]


class TestTraceFlag:
    def test_trace_exports_validatable_jsonl(
        self, placement_path, tmp_path, capsys
    ):
        trace = str(tmp_path / "t.jsonl")
        assert main(
            [
                "attack", placement_path, "--k", "2", "--s", "2",
                "--trace", trace,
            ]
        ) == 0
        assert os.path.exists(trace)
        capsys.readouterr()
        assert main(["stats", trace, "--validate"]) == 0
        assert "schema ok" in capsys.readouterr().out

    def test_stats_renders_profile_from_trace(
        self, placement_path, tmp_path, capsys
    ):
        trace = str(tmp_path / "t.jsonl")
        main(
            [
                "attack", placement_path, "--k", "2", "--s", "2",
                "--trace", trace,
            ]
        )
        capsys.readouterr()
        assert main(["stats", trace]) == 0
        out = capsys.readouterr().out
        assert "deterministic profile" in out
        assert "engine.attack" in out


class TestStatsManifest:
    def _instrumented_run(self, tmp_path):
        obs.set_metrics(True)
        spec = _spec()
        store = RunStore(str(tmp_path / "store"))
        run_experiment(spec, store=store)
        return store.run_path(spec), store

    def test_renders_manifest_obs(self, tmp_path, capsys):
        run_dir, _store = self._instrumented_run(tmp_path)
        assert main(["stats", run_dir]) == 0
        out = capsys.readouterr().out
        assert "manifest obs snapshot" in out
        assert "store.cells_committed" in out

    def test_json_output_parses(self, tmp_path, capsys):
        run_dir, _store = self._instrumented_run(tmp_path)
        assert main(["stats", run_dir, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["counters"]["attack.searches"] > 0

    def test_store_root_with_one_run_resolves(self, tmp_path, capsys):
        run_dir, _store = self._instrumented_run(tmp_path)
        assert main(["stats", str(tmp_path / "store")]) == 0
        assert "manifest obs snapshot" in capsys.readouterr().out

    def test_uninstrumented_manifest_exits_1_with_hint(self, tmp_path, capsys):
        spec = _spec()
        store = RunStore(str(tmp_path / "store"))
        run_experiment(spec, store=store)
        assert main(["stats", store.run_path(spec)]) == 1
        err = capsys.readouterr().err
        assert "no \"obs\" record" in err
        assert "--stats" in err

    def test_directory_without_manifest_exits_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path)]) == 2
        assert "no manifest.json" in capsys.readouterr().err

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err
