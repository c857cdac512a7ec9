"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestFigureCommand:
    """One catalog figure printed by ``repro run <fig> --no-store``."""

    def test_fig4(self, capsys):
        assert main(["run", "fig4", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4" in out
        assert "DIFFERS" in out

    def test_fig3(self, capsys):
        assert main(["run", "fig3", "--no-store"]) == 0
        assert "Fig 3" in capsys.readouterr().out

    def test_fig11(self, capsys):
        assert main(["run", "fig11", "--no-store"]) == 0
        assert "Fig 11" in capsys.readouterr().out

    def test_unknown_rejected(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "fig2" in err
        # The old ``repro figure`` subcommand is gone: argparse rejects it.
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig4"])
        assert exc.value.code == 2

    def test_list_catalog(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig9a", "fig11", "appendix_a"):
            assert name in out
        assert "Lemma-4" in out  # descriptions, not just names

    def test_no_name_and_no_list_is_an_error(self, capsys):
        assert main(["run"]) == 2
        assert "--list" in capsys.readouterr().err

    @pytest.mark.parametrize("knob", [
        "REPRO_REPS", "REPRO_B_MAX", "REPRO_EFFORT", "REPRO_WORKERS",
        "REPRO_SHARD_RETRIES",
    ])
    def test_empty_knob_means_unset(self, capsys, monkeypatch, knob):
        monkeypatch.setenv(knob, "")
        assert main(["run", "fig7", "--no-store", "--limit", "1"]) == 0
        assert "partial" in capsys.readouterr().err


class TestRunCommand:
    def test_list_catalog(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "Monte-Carlo" in out

    def test_unknown_name_lists_known_up_front(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "fig2" in err

    def test_run_with_store_resume_and_rerender(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        args = ["run", "fig4", "--store", store]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "Fig 4" in first.out
        assert "0 loaded" in first.err

        # Second invocation re-renders entirely from the store.
        assert main(args) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "0 computed" in second.err

    def test_run_limit_then_resume(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert main(["run", "fig4", "--store", store, "--limit", "2"]) == 0
        partial = capsys.readouterr()
        assert "partial" in partial.err
        assert main(["run", "fig4", "--store", store, "--resume"]) == 0
        resumed = capsys.readouterr()
        assert "Fig 4" in resumed.out
        assert "0 recomputed" in resumed.err

    def test_no_store_limit_does_not_offer_resume(self, capsys):
        # Nothing was stored, so `--resume` would recompute every cell.
        assert main(["run", "fig4", "--no-store", "--limit", "2"]) == 0
        err = capsys.readouterr().err
        assert "partial run" in err
        assert "--resume" not in err
        assert "nothing was stored" in err
        assert "`repro run fig4 --no-store`" in err

    def test_run_spec_json(self, tmp_path, capsys):
        from repro.analysis import fig11

        spec = fig11.default_spec(systems=((71, 3),), k_max=3)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["run", str(path), "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "Fig 11" in out

    def test_run_bad_spec_json(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"experiment": "nope"}))
        assert main(["run", str(path), "--no-store"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_missing_target(self, capsys):
        assert main(["run"]) == 2
        assert "--list" in capsys.readouterr().err

    def test_run_spec_missing_constants_fails_cleanly(self, tmp_path, capsys):
        # Kernel-level spec errors surface as `run: ...`, not a traceback.
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"experiment": "fig2"}))
        assert main(["run", str(path), "--no-store"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run:") and "constant" in err

    def test_run_bad_workers_fails_cleanly(self, capsys):
        assert main(["run", "fig4", "--no-store", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err


class TestPlaceCommand:
    def test_random_to_stdout(self, capsys):
        assert main([
            "place", "--strategy", "random",
            "--n", "13", "--r", "3", "--b", "20", "--seed", "5",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 13
        assert len(payload["replica_sets"]) == 20

    def test_simple_with_lambda_note(self, capsys):
        assert main([
            "place", "--strategy", "simple",
            "--n", "13", "--r", "3", "--b", "30", "--x", "1",
        ]) == 0
        captured = capsys.readouterr()
        assert "lambda=2" in captured.err
        payload = json.loads(captured.out)
        assert payload["strategy"].startswith("Simple")

    def test_combo_to_file(self, tmp_path, capsys):
        target = tmp_path / "placement.json"
        assert main([
            "place", "--n", "13", "--r", "3", "--b", "26",
            "--s", "2", "--k", "3", "--output", str(target),
        ]) == 0
        captured = capsys.readouterr()
        assert "lower_bound" in captured.err
        payload = json.loads(target.read_text())
        assert len(payload["replica_sets"]) == 26

    @pytest.mark.parametrize("flags,message", [
        (["--strategy", "simple", "--b", "0"], "need b >= 1, got 0"),
        (["--strategy", "random", "--r", "9"],
         "need 1 <= r <= n, got r=9, n=7"),
        (["--strategy", "combo", "--s", "5"],
         "need 1 <= s <= r <= n, got s=5, r=3, n=7"),
        (["--strategy", "combo", "--k", "9"],
         "need s <= k < n, got s=2, k=9, n=7"),
    ])
    def test_out_of_range_values_exit_2_with_one_line(
        self, capsys, flags, message
    ):
        # Later flags win, so each case overrides one value of a valid
        # n=7, r=3, b=10 placement.
        argv = ["place", "--n", "7", "--r", "3", "--b", "10", *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"place: {message}\n"


class TestAttackCommand:
    def test_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "placement.json"
        main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "24",
            "--seed", "1", "--output", str(target),
        ])
        capsys.readouterr()
        assert main([
            "attack", str(target), "--k", "3", "--s", "2",
            "--effort", "exact",
        ]) == 0
        out = capsys.readouterr().out
        assert "certified optimal: yes" in out
        assert "objects killed:" in out

    def test_batched_k_grid(self, tmp_path, capsys):
        target = tmp_path / "placement.json"
        main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "24",
            "--seed", "1", "--output", str(target),
        ])
        capsys.readouterr()
        assert main([
            "attack", str(target), "--k", "2", "--k", "3", "--s", "2",
            "--effort", "exact",
        ]) == 0
        out = capsys.readouterr().out
        assert "--- k=2 ---" in out
        assert "--- k=3 ---" in out
        assert out.count("certified optimal: yes") == 2

    @pytest.mark.parametrize("flags,message", [
        (["--k", "0", "--s", "2"], "need 1 <= k < n=12, got k=0"),
        (["--k", "12", "--s", "2"], "need 1 <= k < n=12, got k=12"),
        (["--k", "3", "--s", "4"], "need 1 <= s <= r=3, got s=4"),
    ])
    def test_out_of_range_values_exit_2_with_one_line(
        self, tmp_path, capsys, flags, message
    ):
        target = tmp_path / "placement.json"
        main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "24",
            "--seed", "1", "--output", str(target),
        ])
        capsys.readouterr()
        assert main(["attack", str(target), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"attack: {message}\n"

    def test_answer_does_not_depend_on_worker_count(
        self, tmp_path, capsys, monkeypatch
    ):
        # A single-s heuristic k-ladder is one warm-start chain: the
        # reported failure sets are a function of (placement, k, s) and
        # must not change with REPRO_WORKERS.
        target = tmp_path / "placement.json"
        main([
            "place", "--strategy", "random",
            "--n", "25", "--r", "3", "--b", "400",
            "--seed", "2", "--output", str(target),
        ])
        capsys.readouterr()
        ladder = [flag for k in range(3, 9) for flag in ("--k", str(k))]
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("REPRO_WORKERS", workers)
            assert main([
                "attack", str(target), "--s", "2", "--effort", "fast",
                *ladder,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestBadPlacementFile:
    """A missing or malformed placement file is one line and exit 2."""

    @pytest.fixture(params=["attack", "audit"])
    def command(self, request):
        return request.param

    def _run(self, command, path, capsys):
        code = main([command, str(path), "--k", "2", "--s", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"{command}: ")
        return captured.err

    def test_missing_file(self, command, tmp_path, capsys):
        err = self._run(command, tmp_path / "absent.json", capsys)
        assert "No such file or directory" in err

    def test_npz_that_is_not_a_zip(self, command, tmp_path, capsys):
        target = tmp_path / "garbage.npz"
        target.write_bytes(b"garbage")
        assert "not a zip archive" in self._run(command, target, capsys)

    def test_json_that_is_not_json(self, command, tmp_path, capsys):
        target = tmp_path / "garbage.json"
        target.write_text("garbage", encoding="utf-8")
        assert "not valid JSON" in self._run(command, target, capsys)

    def test_rows_that_are_not_a_placement(self, command, tmp_path, capsys):
        target = tmp_path / "repeat.json"
        main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "24",
            "--seed", "1", "--output", str(target),
        ])
        capsys.readouterr()
        payload = json.loads(target.read_text(encoding="utf-8"))
        payload["n"] = 2  # fewer nodes than the replica sets name
        target.write_text(json.dumps(payload), encoding="utf-8")
        self._run(command, target, capsys)


class TestAuditCommand:
    def test_audit_placement_file(self, tmp_path, capsys):
        target = tmp_path / "placement.json"
        main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "24",
            "--seed", "2", "--output", str(target),
        ])
        capsys.readouterr()
        assert main([
            "audit", str(target), "--k", "3", "--k", "4", "--s", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "placement audit" in out
        assert "k=3, s=2" in out
        assert "k=4, s=2" in out


class TestSimulateCommand:
    def test_out_of_range_k_exits_2_with_one_line(self, capsys):
        assert main(["simulate", "--n", "10", "--k", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "simulate: need 1 <= k < n=10, got k=10\n"

    # ``flags`` follow ``simulate --events 50`` unless they start with
    # another command; ``env`` is set for the call. A NaN shard timeout
    # would arm a watchdog whose deadline never fires.
    @pytest.mark.parametrize("flags,message,env", [
        (["--churn-prob", "2"], "need 0 <= arrival probability <= 1, got 2.0",
         {}),
        (["--churn-prob", "-0.5"],
         "need 0 <= arrival probability <= 1, got -0.5", {}),
        (["--warmup", "-5"], "need warmup arrivals >= 0, got -5", {}),
        (["--failure-rate", "-1"], "need failure rate >= 0, got -1.0", {}),
        (["--rack-failure-rate", "-0.1"],
         "need rack failure rate >= 0, got -0.1", {}),
        (["--strike-period", "-3"], "need strike period >= 0, got -3.0", {}),
        (["--measure-period", "-1"], "need measure period >= 0, got -1.0",
         {}),
        ([], "unknown gain backing 'garbage'; use auto or one of "
         "('native', 'python')", {"REPRO_GAIN_BACKING": "garbage"}),
        (["run", "fig3", "--no-store"],
         "REPRO_WORKERS must be an integer >= 1, got 'x'",
         {"REPRO_WORKERS": "x"}),
        (["run", "fig2", "--workers", "2", "--no-store",
          "--shard-timeout", "nan"], "shard_timeout must be > 0, got nan",
         {"REPRO_B_MAX": "1200"}),
        (["run", "fig2", "--workers", "2", "--no-store"],
         "REPRO_SHARD_TIMEOUT must be > 0, got nan",
         {"REPRO_SHARD_TIMEOUT": "nan", "REPRO_B_MAX": "1200"}),
        ([], "unknown gain backing 'numpy'; use auto or one of "
         "('native', 'python')", {"REPRO_GAIN_BACKING": "numpy"}),
    ])
    def test_bad_process_settings_exit_2_with_one_line(
        self, capsys, monkeypatch, flags, message, env
    ):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if flags[:1] != ["run"]:
            flags = ["simulate", "--events", "50", *flags]
        assert main(flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{flags[0]}: {message}\n"

    def test_lifetime_run_renders_report(self, capsys):
        assert main([
            "simulate", "--events", "300", "--seed", "4",
            "--failure-rate", "0.02", "--repair", "lazy",
        ]) == 0
        out = capsys.readouterr().out
        assert "Lifetime summary" in out
        assert "Availability over time" in out
        assert "Adversary strikes" in out

    def test_json_archive(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main([
            "simulate", "--events", "200", "--strike-period", "12",
            "--json", str(target),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert payload["schema"] == "sim_report/v1"
        assert payload["events"] == 200
        assert payload["bound_violations"] == 0

    def test_engine_modes_agree(self, capsys):
        args = ["simulate", "--events", "250", "--seed", "6",
                "--measure-period", "0"]
        assert main(args + ["--engine", "delta"]) == 0
        delta_out = capsys.readouterr().out
        assert main(args + ["--engine", "rebuild"]) == 0
        rebuild_out = capsys.readouterr().out
        # Identical strike tables; only the engine-mode line differs.
        strip = lambda text: [
            line for line in text.splitlines() if "engine mode" not in line
            and "wall seconds" not in line and "events/sec" not in line
        ]
        assert strip(delta_out) == strip(rebuild_out)


class TestBoundsCommand:
    def test_fig9_cell(self, capsys):
        assert main([
            "bounds", "--n", "71", "--r", "3", "--s", "2",
            "--b", "2400", "--k", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "lbAvail_co" in out
        assert "prAvail_rnd" in out
        assert "winner: combo" in out

    @pytest.mark.parametrize("flags,message", [
        (["--s", "5", "--k", "2"], "need 1 <= s <= r <= n, got s=5, r=3, n=7"),
        (["--s", "2", "--k", "7"], "need s <= k < n, got s=2, k=7, n=7"),
    ])
    def test_out_of_range_values_exit_2_with_one_line(
        self, capsys, flags, message
    ):
        argv = ["bounds", "--n", "7", "--r", "3", "--b", "10", *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"bounds: {message}\n"


class TestCatalogCommand:
    def test_single_order(self, capsys):
        assert main(["catalog", "--r", "4", "--t", "3", "--v", "26"]) == 0
        assert "KNOWN" in capsys.readouterr().out

    def test_order_list(self, capsys):
        assert main([
            "catalog", "--r", "3", "--t", "2", "--max-v", "30",
            "--tier", "constructible",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 7 9 13 15 19 21 25 27" in out
        assert "largest: 27" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestNpzArtifacts:
    def test_place_npz_attack_matches_json(self, tmp_path, capsys):
        json_target = tmp_path / "placement.json"
        npz_target = tmp_path / "placement.npz"
        for target in (json_target, npz_target):
            assert main([
                "place", "--strategy", "random",
                "--n", "12", "--r", "3", "--b", "24",
                "--seed", "1", "--output", str(target),
            ]) == 0
        capsys.readouterr()
        assert main([
            "attack", str(json_target), "--k", "3", "--s", "2",
            "--effort", "exact",
        ]) == 0
        json_out = capsys.readouterr().out
        assert main([
            "attack", str(npz_target), "--k", "3", "--s", "2",
            "--effort", "exact",
        ]) == 0
        npz_out = capsys.readouterr().out
        # Identical placement structure => bit-identical attack output.
        assert npz_out == json_out
        assert "certified optimal: yes" in npz_out

    def test_mmap_attack_matches_eager_on_numpy_csr(
        self, tmp_path, capsys, monkeypatch
    ):
        # Crossover 0 puts both loads on the numpy CSR branch (a uint16
        # sort key at n = 300); the default crossover keeps this b on the
        # pure branch. All three attacks must print the same bytes.
        pytest.importorskip("numpy")
        from repro.util import lazynumpy

        target = tmp_path / "placement.npz"
        assert main([
            "place", "--strategy", "random",
            "--n", "300", "--r", "3", "--b", "3000",
            "--seed", "7", "--output", str(target),
        ]) == 0
        attack = ["attack", str(target), "--k", "3", "--k", "4", "--s", "2",
                  "--effort", "fast"]

        def stdout(*extra):
            capsys.readouterr()
            assert main([*attack, *extra]) == 0
            return capsys.readouterr().out

        pure = stdout()
        monkeypatch.setattr(lazynumpy, "BULK_MIN_B", 0)
        assert stdout() == pure
        assert stdout("--mmap") == pure

    def test_place_format_npz_appends_extension(self, tmp_path, capsys):
        target = tmp_path / "placement"
        assert main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "10",
            "--seed", "3", "--format", "npz", "--output", str(target),
        ]) == 0
        err = capsys.readouterr().err
        assert "placement.npz" in err
        from repro.core.artifact import load_placement

        loaded = load_placement(str(target) + ".npz")
        assert loaded.b == 10

    def test_format_npz_without_output_fails(self, capsys):
        assert main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "10", "--format", "npz",
        ]) == 2
        assert "--output" in capsys.readouterr().err

    def test_audit_accepts_npz(self, tmp_path, capsys):
        target = tmp_path / "placement.npz"
        main([
            "place", "--strategy", "random",
            "--n", "12", "--r", "3", "--b", "24",
            "--seed", "2", "--output", str(target),
        ])
        capsys.readouterr()
        assert main([
            "audit", str(target), "--k", "3", "--s", "2",
        ]) == 0
        assert "placement audit" in capsys.readouterr().out

    def test_simulate_writes_final_placement(self, tmp_path, capsys):
        target = tmp_path / "final.npz"
        assert main([
            "simulate", "--events", "220", "--measure-period", "0",
            "--final-placement", str(target),
        ]) == 0
        err = capsys.readouterr().err
        assert "final placement" in err
        from repro.core.artifact import load_placement

        snapshot = load_placement(str(target))
        assert snapshot.b >= 1
        assert snapshot.strategy == "snapshot"
