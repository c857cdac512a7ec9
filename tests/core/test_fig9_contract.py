"""Contract tests on the Fig. 9 cell computation (the headline comparison).

The improvement metric and winner classification are load-bearing for the
whole evaluation, so their edge cases get dedicated coverage here (the
bench asserts the paper's trends; these pin the cell semantics).
"""

import math

from repro.analysis import fig9
from repro.analysis.fig9 import Fig9Cell
from repro.exp.runner import run_experiment


class TestCellSemantics:
    def test_positive_improvement(self):
        cell = Fig9Cell(b=100, k=3, lb_combo=95, pr_avail=90)
        assert cell.improvement_percent == 50.0
        assert cell.winner == "combo"

    def test_negative_improvement(self):
        cell = Fig9Cell(b=100, k=3, lb_combo=80, pr_avail=90)
        assert cell.improvement_percent == -100.0
        assert cell.winner == "random"

    def test_tie(self):
        cell = Fig9Cell(b=100, k=3, lb_combo=90, pr_avail=90)
        assert cell.improvement_percent == 0.0
        assert cell.winner == "tie"

    def test_perfect_random_yields_nan(self):
        cell = Fig9Cell(b=100, k=3, lb_combo=99, pr_avail=100)
        assert math.isnan(cell.improvement_percent)

    def test_improvement_capped_at_100(self):
        # lb <= b always, so (lb - pr) <= (b - pr): metric is <= 100%.
        cell = Fig9Cell(b=100, k=3, lb_combo=100, pr_avail=40)
        assert cell.improvement_percent == 100.0


class TestGenerateContract:
    def test_tables_cover_requested_grid(self):
        result = run_experiment(
            fig9.default_spec(31, 4, r_values=(3,), b_values=(600, 1200))
        ).result()
        shapes = {(t.r, t.s) for t in result.tables}
        assert shapes == {(3, 2), (3, 3)}
        for table in result.tables:
            assert set(table.k_values) == set(range(table.s, 5))
            assert len(table.cells) == 2 * len(table.k_values)

    def test_lb_never_exceeds_b(self):
        result = run_experiment(
            fig9.default_spec(31, 4, r_values=(2, 3), b_values=(600, 4800))
        ).result()
        for table in result.tables:
            for cell in table.cells.values():
                assert 0 <= cell.lb_combo <= cell.b
                assert 0 <= cell.pr_avail <= cell.b

    def test_grid_render_marks_nan_cells(self):
        result = run_experiment(
            fig9.default_spec(31, 4, r_values=(2,), b_values=(600,))
        ).result()
        text = result.render()
        assert "Fig 9 (n=31)" in text
