"""Pinned pre-refactor outputs: the ported figures must be bit-identical.

The digests below were captured from the hand-written figure loops
*before* the port onto :mod:`repro.exp` (fixed seeds, default env knobs:
``REPRO_EFFORT=fast``, ``REPRO_REPS=5``, ``REPRO_B_MAX=9600``). Every
entry pins ``sha256(result.render())[:16]`` for a small parameterization,
and the attack-backed figures are additionally pinned through a sharded
(``workers=2``) engine run — worker count must never perturb a result.
"""

import hashlib

import pytest

from repro.analysis import appendix_a, fig2, fig3, fig5, fig7, fig8, fig9, fig10, fig11
from repro.exp.runner import run_experiment


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(autouse=True)
def _default_knobs(monkeypatch):
    for knob in ("REPRO_EFFORT", "REPRO_REPS", "REPRO_B_MAX", "REPRO_WORKERS"):
        monkeypatch.delenv(knob, raising=False)


class TestAttackBackedFigures:
    """Simulation figures: pinned serially and through the sharded runner."""

    def test_fig2_small(self):
        spec = fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=4)
        serial = run_experiment(spec).result()
        assert _digest(serial.render()) == "e01e0db2cfd4b61f"
        sharded = run_experiment(spec, workers=2).result()
        assert sharded == serial

    def test_fig7_small(self):
        spec = fig7.default_spec(
            configs=((31, 5, 3, (3, 4)),), b_values=(150, 300), reps=2
        )
        serial = run_experiment(spec).result()
        assert _digest(serial.render()) == "e0d640b829d49e2c"
        sharded = run_experiment(spec, workers=2).result()
        assert sharded == serial

    def test_fig7_small_values(self):
        result = run_experiment(fig7.default_spec(
            configs=((31, 5, 3, (3, 4)),), b_values=(150, 300), reps=2
        )).result()
        pinned = [
            (31, 5, 3, 3, 150, 146, 146.5, 0.5, 2),
            (31, 5, 3, 4, 150, 142, 144.5, 0.5, 2),
            (31, 5, 3, 3, 300, 295, 296.0, 0.0, 2),
            (31, 5, 3, 4, 300, 289, 291.0, 1.0, 2),
        ]
        assert [
            (c.n, c.r, c.s, c.k, c.b, c.pr_avail, c.avg_avail,
             c.stdev_avail, c.repetitions)
            for c in result.cells
        ] == pinned

    def test_fig2_small_values(self):
        result = run_experiment(
            fig2.default_spec(b_values=(600,), s_values=(2, 3), k_max=4)
        ).result()
        pinned = [
            (600, 2, 2, 599, 599, False),
            (600, 2, 3, 597, 597, False),
            (600, 2, 4, 594, 594, False),
            (600, 3, 3, 599, 599, False),
            (600, 3, 4, 599, 598, False),
        ]
        assert [
            (c.b, c.s, c.k, c.avail, c.lower_bound, c.exact)
            for c in result.cells
        ] == pinned


class TestAnalyticFigures:
    """Deterministic DP/catalog figures pinned at small parameters."""

    def test_fig3_small(self):
        result = run_experiment(
            fig3.default_spec(systems=((31, 4800), (71, 1200)))
        ).result()
        assert _digest(result.render()) == "5fbe9d9caf5c5ee1"

    def test_fig5_small(self):
        result = run_experiment(
            fig5.default_spec(combos=((3, 1), (3, 2)), n_range=(50, 120))
        ).result()
        assert _digest(result.render()) == "76c00c5680ff87c8"

    def test_fig8_small(self):
        result = run_experiment(
            fig8.default_spec(systems=((71, 3), (71, 5)), k_max=6)
        ).result()
        assert _digest(result.render()) == "c11f9e63c163cbeb"

    def test_fig9a_small(self):
        result = run_experiment(
            fig9.default_spec(71, 7, r_values=(2, 3), b_values=(600, 1200))
        ).result()
        assert _digest(result.render()) == "a198ed13f8904e47"

    def test_fig10_small(self):
        (result,) = run_experiment(
            fig10.default_spec((31,), b_values=(600, 1200))
        ).result()
        assert _digest(result.render()) == "5141f97df123e74b"

    def test_fig11_small(self):
        result = run_experiment(
            fig11.default_spec(systems=((71, 3), (71, 5)), k_max=6)
        ).result()
        assert _digest(result.render()) == "bdd62e6fe5402190"

    def test_appendix_a_small(self):
        result = run_experiment(appendix_a.default_spec(
            systems=((71, 5),), b_values=(600, 2400), k_values=(1, 2, 3)
        )).result()
        assert _digest(result.render()) == "409c2e96c2f312cd"

    def test_analytic_sharding_is_invisible(self):
        spec = fig9.default_spec(71, 7, r_values=(2, 3), b_values=(600, 1200))
        assert (
            run_experiment(spec, workers=2).result()
            == run_experiment(spec, workers=1).result()
        )
