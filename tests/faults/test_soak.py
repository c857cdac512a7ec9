"""Chaos soak: deterministic schedules pinned to the spec's layout, and
one soak run end to end through the CLI."""

import os
import re
import signal
import subprocess
import sys

import pytest

from repro.analysis import fig2, fig7
from repro.faults.plan import FaultPlan
from repro.faults.soak import (
    SoakError,
    _python_env,
    build_soak_plan,
    planned_faults,
    run_soak,
)


def _spec():
    return fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=4)


def _shard_bounds(spec):
    from repro.exp.registry import kernel as experiment_kernel
    from repro.exp.runner import _contiguous_groups

    definition = experiment_kernel(spec.experiment)
    cells = [dict(cell) for cell in definition.expand(spec)]
    return [
        (group.start, group.end)
        for group in _contiguous_groups(spec, definition, cells)
    ]


_PLANNED = re.compile(
    r"\((\d+) crashes, (\d+) torn writes, (\d+) errors, (\d+) hangs\)"
)
_FIRED = re.compile(
    r"\((\d+) worker deaths, (\d+) watchdog timeouts, (\d+) errors, "
    r"(\d+) torn writes\)"
)


def _planned_and_fired(output):
    """(crashes, torn, errors, hangs) as planned and as fired."""
    crashes, torn, errors, hangs = map(
        int, _PLANNED.search(output).groups()
    )
    deaths, timeouts, fired_errors, fired_torn = map(
        int, _FIRED.search(output).groups()
    )
    return (crashes, torn, errors, hangs), (
        deaths, fired_torn, fired_errors, timeouts,
    )


def _kinds(plan):
    counts = {}
    for rule in plan.rules:
        counts[rule.kind] = counts.get(rule.kind, 0) + 1
    return counts


class TestPlanShape:
    def test_fault_mix_matches_the_request(self):
        # Everything requested fits this 4-shard grid, so all of it is
        # planned, and the planned counts are the plan's own rules.
        plan = build_soak_plan(
            _spec(), crashes=3, torn_writes=2, errors=4, hangs=1, seed=0,
        )
        assert _kinds(plan) == {
            "crash": 3, "torn": 2, "error": 4, "hang": 1,
        }
        assert planned_faults(plan) == {
            "crashes": 3, "torn_writes": 2, "errors": 4, "hangs": 1,
            "total": 10,
        }

    def test_planned_counts_are_the_rules_built_not_the_request(self):
        # 20 faults cannot each fire exactly once on 10 cells: the plan
        # keeps the split that fits most, with every kind still present.
        plan = build_soak_plan(
            _spec(), crashes=8, torn_writes=6, errors=4, hangs=2, seed=0,
        )
        planned = planned_faults(plan)
        kinds = _kinds(plan)
        assert planned == {
            "crashes": kinds["crash"], "torn_writes": kinds["torn"],
            "errors": kinds["error"], "hangs": kinds["hang"],
            "total": len(plan.rules),
        }
        assert min(kinds.values()) >= 1
        assert planned["total"] < 20

    @pytest.mark.parametrize("shard_retries", [1, 2, 3])
    def test_worker_faults_precede_the_first_torn_write(self, shard_retries):
        spec = _spec()
        plan = build_soak_plan(
            spec, crashes=6, torn_writes=3, errors=4, hangs=2,
            shard_retries=shard_retries, seed=3,
        )
        ends = dict(_shard_bounds(spec))
        first_torn = min(
            dict(rule.when)["index"] for rule in plan.rules
            if rule.kind == "torn"
        )
        attempts = {}
        for rule in plan.rules:
            if rule.kind == "torn":
                continue
            when = dict(rule.when)
            assert rule.site == "runner.shard_start"
            assert ends[when["start"]] <= first_torn
            attempts.setdefault(when["start"], []).append(when["attempt"])
        for used in attempts.values():
            # Attempt a runs only after attempts 0..a-1 failed, and the
            # shard keeps one attempt to succeed on.
            assert sorted(used) == list(range(len(used)))
            assert len(used) <= shard_retries

    def test_same_seed_same_plan(self):
        one = build_soak_plan(_spec(), crashes=2, torn_writes=2, seed=5)
        two = build_soak_plan(_spec(), crashes=2, torn_writes=2, seed=5)
        assert one.plan_hash() == two.plan_hash()

    def test_different_seed_different_plan(self):
        one = build_soak_plan(_spec(), crashes=2, torn_writes=2, seed=5)
        two = build_soak_plan(_spec(), crashes=2, torn_writes=2, seed=6)
        assert one.plan_hash() != two.plan_hash()

    def test_crash_rules_only_target_supervised_dispatch(self):
        plan = build_soak_plan(_spec(), crashes=4, hangs=1, seed=1)
        for rule in plan.rules:
            if rule.kind in ("crash", "hang"):
                assert dict(rule.when)["mode"] == "shard"

    def test_torn_rules_pin_index_and_hit_delta(self):
        plan = build_soak_plan(_spec(), torn_writes=3, seed=2)
        torn = [dict(rule.when) for rule in plan.rules
                if rule.kind == "torn"]
        assert len(torn) == 3
        previous = 0
        for when in sorted(torn, key=lambda entry: entry["index"]):
            # The hit delta is what makes each rule one-shot across the
            # whole restart loop (see build_soak_plan).
            assert when["hit"] == when["index"] - previous
            assert when["hit"] >= 1
            previous = when["index"]

    def test_empty_spec_is_rejected(self):
        from repro.exp.spec import ExperimentSpec

        empty = ExperimentSpec.build(
            "fig2",
            axes={"b": (19200,), "s": (2,)},
            constants={"n": 71, "r": 3, "x": 1, "k_max": 3,
                       "effort": "fast", "b_cap": 9600},
        )
        with pytest.raises(SoakError, match="zero cells"):
            build_soak_plan(empty, crashes=1)


class TestSoakEndToEnd:
    #: Far above the soaks' few seconds, so only a wedged pool reaches it.
    TIMEOUT = 60

    def _soak(self, tmp_path, spec, *args):
        """Run ``repro chaos-soak`` on ``spec`` in its own process group,
        so a hang fails the test and takes every worker down with it."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.canonical_json() + "\n", encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "chaos-soak", str(spec_path),
             "--workers", "2", "--root", str(tmp_path / "soak"), *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=_python_env(), start_new_session=True,
        )
        try:
            output, _ = proc.communicate(timeout=self.TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"chaos soak hung for {self.TIMEOUT}s")
        assert proc.returncode == 0, output
        assert "final store byte-identical to the fault-free reference" in output
        return output

    def test_worker_crash_after_a_delivered_result_cannot_wedge_the_pool(
        self, tmp_path
    ):
        # Seed 11 crashes a worker at shard start right after the
        # supervisor read its previous result; the other worker must
        # keep delivering. Every planned fault fires exactly once.
        spec = fig7.default_spec(
            configs=((31, 5, 3, (3, 4)),), b_values=(150, 300), reps=3
        )
        output = self._soak(tmp_path, spec, "--faults", "6", "--seed", "11")
        planned, fired = _planned_and_fired(output)
        assert fired == planned
        crashes, torn, errors, hangs = planned
        assert min(crashes, torn, errors) >= 1 and hangs == 0

    def test_armed_watchdog_plans_hangs_that_fire_as_timeouts(
        self, tmp_path
    ):
        output = self._soak(
            tmp_path, _spec(), "--faults", "6", "--shard-timeout", "2",
        )
        planned, fired = _planned_and_fired(output)
        assert fired == planned
        assert min(planned) >= 1  # crashes, torn writes, errors, hangs


class TestRetryAccounting:
    def test_retries_count_in_a_run_a_torn_write_kills(self, tmp_path):
        # The first shard's worker crashes (one retry), then the last
        # cell's commit tears and kills the run before its summary line.
        # The resumed run completes without retrying, so the retry is
        # visible only in the killed run's stderr.
        spec = _spec()
        last = len(fig2.KERNELS["fig2"].expand(spec)) - 1
        plan = FaultPlan.build(seed=0, rules=[
            {"site": "runner.shard_start", "kind": "crash",
             "when": {"start": 0, "attempt": 0, "mode": "shard"},
             "times": 1},
            {"site": "store.commit", "kind": "torn",
             "when": {"index": last, "hit": last}, "times": 1},
        ])
        report = run_soak(
            spec, plan, str(tmp_path / "soak"), workers=2, quiet=True,
        )
        assert (report["runs"], report["restarts"]) == (2, 1)
        assert report["shard_retries"] == 1
        assert report["fired"] == {
            "worker_died": 1, "watchdog_timeout": 0, "error": 0,
            "torn_writes": 1,
        }

    def test_fired_faults_are_tallied_by_cause(self, tmp_path):
        # One shard reports an injected error, another hangs until the
        # watchdog kills its worker; nothing kills the run itself.
        spec = _spec()
        plan = FaultPlan.build(seed=0, rules=[
            {"site": "runner.shard_start", "kind": "error",
             "when": {"start": 0, "attempt": 0, "mode": "shard"},
             "times": 1},
            {"site": "runner.shard_start", "kind": "hang",
             "when": {"start": 3, "attempt": 0, "mode": "shard"},
             "times": 1, "args": {"seconds": 60.0}},
        ])
        report = run_soak(
            spec, plan, str(tmp_path / "soak"), workers=2,
            shard_timeout=1.0, quiet=True,
        )
        assert (report["runs"], report["restarts"]) == (1, 0)
        assert report["shard_retries"] == 2
        assert report["fired"] == {
            "worker_died": 0, "watchdog_timeout": 1, "error": 1,
            "torn_writes": 0,
        }
