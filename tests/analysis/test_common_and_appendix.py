"""Tests for analysis.common knobs and the Appendix-A generator."""

import math

import pytest

from repro.analysis import appendix_a, common
from repro.exp import runner


class TestCommonKnobs:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_EFFORT", raising=False)
        monkeypatch.delenv("REPRO_REPS", raising=False)
        monkeypatch.delenv("REPRO_B_MAX", raising=False)
        assert common.adversary_effort() == "fast"
        assert common.monte_carlo_reps() == 5
        assert common.object_scale_cap() == 9600
        # An empty value means the knob is unset.
        for knob in ("REPRO_EFFORT", "REPRO_REPS", "REPRO_B_MAX"):
            monkeypatch.setenv(knob, "")
        assert common.adversary_effort() == "fast"
        assert common.monte_carlo_reps() == 5
        assert common.object_scale_cap() == 9600

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_EFFORT", "exact")
        monkeypatch.setenv("REPRO_REPS", "20")
        monkeypatch.setenv("REPRO_B_MAX", "38400")
        assert common.adversary_effort() == "exact"
        assert common.monte_carlo_reps() == 20
        assert common.object_scale_cap() == 38400

    def test_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EFFORT", "turbo")
        with pytest.raises(ValueError):
            common.adversary_effort()
        monkeypatch.setenv("REPRO_REPS", "0")
        with pytest.raises(ValueError):
            common.monte_carlo_reps()
        monkeypatch.setenv("REPRO_B_MAX", "-5")
        with pytest.raises(ValueError):
            common.object_scale_cap()

    def test_non_numeric_values_name_the_env_var(self, monkeypatch):
        # A bare int() used to blow up with an anonymous ValueError before
        # the guarded range check ran; the message must name the knob.
        monkeypatch.setenv("REPRO_REPS", "many")
        with pytest.raises(ValueError, match="REPRO_REPS"):
            common.monte_carlo_reps()
        monkeypatch.setenv("REPRO_B_MAX", "huge")
        with pytest.raises(ValueError, match="REPRO_B_MAX"):
            common.object_scale_cap()

    @pytest.mark.parametrize(
        "env,value,getter",
        [
            ("REPRO_EFFORT", "turbo", lambda: common.adversary_effort()),
            ("REPRO_REPS", "many", lambda: common.monte_carlo_reps()),
            ("REPRO_REPS", "0", lambda: common.monte_carlo_reps()),
            ("REPRO_B_MAX", "huge", lambda: common.object_scale_cap()),
            ("REPRO_B_MAX", "-5", lambda: common.object_scale_cap()),
            ("REPRO_WORKERS", "lots", lambda: runner.worker_count()),
            ("REPRO_WORKERS", "0", lambda: runner.worker_count()),
        ],
    )
    def test_every_knob_rejects_bad_values_by_name(
        self, monkeypatch, env, value, getter
    ):
        monkeypatch.setenv(env, value)
        with pytest.raises(ValueError, match=env):
            getter()

    def test_ladders(self):
        assert common.PAPER_B_LADDER[0] == 600
        assert common.PAPER_B_LADDER[-1] == 38400
        assert common.FIG7_B_LADDER[0] == 150

    def test_percent_guard(self):
        assert common.percent(1, 2) == 50.0
        assert math.isnan(common.percent(1, 0))


class TestAppendixA:
    def test_small_generation(self):
        result = runner.run_experiment(appendix_a.default_spec(
            systems=((71, 5),), b_values=(600, 38400), k_values=(1, 3, 5)
        )).result()
        assert len(result.cells) == 6
        for cell in result.cells:
            # Lemma 4 bounds prAvail from above (integer rounding slack).
            assert cell.pr_avail <= cell.lemma4_bound + 1
            assert 0 <= cell.lb_simple0 <= cell.b

    def test_paper_regime_random_wins(self):
        result = runner.run_experiment(appendix_a.default_spec(
            systems=((71, 5),), b_values=(38400,), k_values=(3, 4, 5)
        )).result()
        assert all(cell.margin < 0 for cell in result.cells)

    def test_render(self):
        result = runner.run_experiment(appendix_a.default_spec(
            systems=((71, 3),), b_values=(600,), k_values=(2,)
        )).result()
        text = result.render()
        assert "Appendix A" in text
        assert "margin" in text
