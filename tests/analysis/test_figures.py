"""Smoke + shape tests for every figure generator (tiny parameterizations)."""

import math

import pytest

from repro.analysis import fig2, fig3, fig4, fig5, fig7, fig8, fig9, fig10, fig11
from repro.exp.runner import run_experiment


class TestFig2:
    def test_gap_nonnegative_with_exact_adversary(self):
        result = run_experiment(fig2.default_spec(
            b_values=(600,), s_values=(2,), k_max=3, effort="exact"
        )).result()
        for cell in result.cells:
            assert cell.exact
            assert cell.gap >= 0  # Lemma 2 soundness, certified

    def test_series_grouping_and_render(self):
        result = run_experiment(
            fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=3)
        ).result()
        curves = result.series()
        assert (2, 2) in curves and (3, 3) in curves
        assert "Fig 2" in result.render()


class TestFig3:
    def test_ratio_at_configured_k_is_100(self):
        result = run_experiment(
            fig3.default_spec(systems=((71, 1200),), k_prime_range=(6, 6))
        ).result()
        (point,) = result.points
        assert point.ratio_percent == pytest.approx(100.0)

    def test_ratios_stay_high(self):
        result = run_experiment(
            fig3.default_spec(systems=((31, 4800), (71, 1200)))
        ).result()
        for point in result.points:
            assert point.ratio_percent > 95.0
        assert "Fig 3" in result.render()


class TestFig4:
    def test_matches_paper_except_corrupted_cells(self):
        result = run_experiment(fig4.default_spec()).result()
        mismatches = {
            (c.n, c.r, c.x) for c in result.cells if c.matches_paper is False
        }
        assert mismatches == {(71, 4, 1), (71, 5, 3)}
        assert "DIFFERS" in result.render()

    def test_corrected_values(self):
        result = run_experiment(fig4.default_spec()).result()
        by_key = {(c.n, c.r, c.x): c for c in result.cells}
        assert by_key[(71, 4, 1)].nx_catalog == 64
        assert by_key[(71, 5, 3)].nx_catalog == 47


class TestFig5:
    def test_small_range_shapes(self):
        result = run_experiment(
            fig5.default_spec(combos=((3, 1), (3, 2)), n_range=(50, 120))
        ).result()
        by_x = {cdf.x: cdf for cdf in result.cdfs}
        # Trivial stratum always has zero gap.
        assert by_x[2].fraction_at_most(0.0) == 1.0
        # STS chunks cover nearly everything within 10% even at small n
        # (relative gaps shrink as n grows; the paper's range is [50, 800]).
        assert by_x[1].fraction_at_most(0.1) > 0.95
        assert "capacity-gap" in result.render()

    def test_fig6_mu_relaxation_helps(self):
        strict = run_experiment(
            fig5.default_spec(combos=((5, 3),), n_range=(50, 120))
        ).result()
        relaxed = run_experiment(fig5.default_spec(
            combos=((5, 3),),
            n_range=(50, 120),
            max_mu=5,
            tier=fig5.Existence.DIVISIBILITY,
        )).result()
        assert relaxed.cdfs[0].fraction_at_most(0.05) >= strict.cdfs[
            0
        ].fraction_at_most(0.05)


class TestFig7:
    def test_small_config_runs(self):
        result = run_experiment(fig7.default_spec(
            configs=((31, 5, 3, (3,)),),
            b_values=(150, 300),
            reps=2,
            effort="fast",
        )).result()
        assert len(result.cells) == 2
        for cell in result.cells:
            assert cell.pr_avail <= cell.b
            assert not math.isnan(cell.error_percent)
        assert "Fig 7" in result.render()


class TestFig8:
    def test_monotone_in_s(self):
        result = run_experiment(fig8.default_spec(
            b=2400, systems=((71, 5),), s_values=(1, 3, 5), k_max=6
        )).result()
        grouped = result.by_s()
        at_k5 = {
            s: dict(entries[0].points)[5] for s, entries in grouped.items()
        }
        assert at_k5[1] < at_k5[3] < at_k5[5]
        assert "Fig 8" in result.render()


class TestFig9:
    def test_small_table_properties(self):
        result = run_experiment(
            fig9.default_spec(71, 4, r_values=(2, 3), b_values=(600, 2400))
        ).result()
        table = result.table_for(2, 2)
        assert table is not None
        for cell in table.cells.values():
            assert cell.winner in ("combo", "random", "tie")
            # improvement % capped at 100 from above by definition.
            if not math.isnan(cell.improvement_percent):
                assert cell.improvement_percent <= 100.0
        assert result.table_for(9, 9) is None

    def test_headline_anchor_combo_wins_r2(self):
        # Paper: for r = s = 2 Combo wins everywhere on the n = 71 table.
        result = run_experiment(
            fig9.default_spec(71, 7, r_values=(2,), b_values=(2400,))
        ).result()
        table = result.table_for(2, 2)
        assert all(cell.winner == "combo" for cell in table.cells.values())
        assert "Fig 9" in result.render()


class TestFig10:
    def test_lambda_annotations_grow_with_b(self):
        (result,) = run_experiment(
            fig10.default_spec((71,), b_values=(600, 2400, 9600))
        ).result()
        lams = [row.simple_lambdas[1] for row in result.rows]
        assert lams == sorted(lams)
        assert lams[-1] > lams[0]

    def test_combo_dominates_pure_strata(self):
        (result,) = run_experiment(
            fig10.default_spec((71,), b_values=(600, 4800, 38400))
        ).result()
        for row in result.rows:
            for k, combo_value in row.combo_percent.items():
                for x, per_k in row.simple_percent.items():
                    if not math.isnan(per_k[k]) and not math.isnan(combo_value):
                        assert combo_value >= per_k[k] - 1e-9
        assert "Fig 10" in result.render()


class TestFig11:
    def test_decay_and_ordering(self):
        result = run_experiment(
            fig11.default_spec(b=2400, systems=((71, 3), (71, 5)), k_max=6)
        ).result()
        for series in result.series:
            fractions = [f for _, f in series.points]
            assert all(a > b for a, b in zip(fractions, fractions[1:]))
        # Higher r decays faster (more replicas per node to hit).
        r3 = dict(result.series[0].points)
        r5 = dict(result.series[1].points)
        assert r5[6] < r3[6]
        assert "Fig 11" in result.render()
