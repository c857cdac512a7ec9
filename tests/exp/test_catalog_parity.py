"""Full-size catalog parity: every figure reproduces its recorded file.

Each figure of the catalog runs here at its catalog spec, serially and
with the ``REPRO_*`` effort knobs cleared. Its rendering (tables and
ascii plots) must equal ``benchmarks/output/<fig>.txt`` byte for byte,
and the same result must show the paper's trend for that figure: the
checks below are the claims the reproduction stands on (Fig. 4's two
source-corrupted cells, Fig. 9's "Combo wins most of the time",
Appendix A's "both are poor", ...).
"""

import math
import pathlib

import pytest

from repro.analysis import fig5 as fig5_module
from repro.core.rand_analysis import pr_avail_rnd
from repro.exp.registry import figure_names, figure_spec, kernel
from repro.exp.runner import run_experiment
from repro.util.asciiplot import cdf_plot

REFERENCES = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "output"


def _check_fig2(result) -> None:
    # Gaps are small relative to b, and never negative when exact.
    for cell in result.cells:
        assert cell.gap <= 40, f"gap blew up: {cell}"
        if cell.exact:
            assert cell.gap >= 0


def _check_fig3(result) -> None:
    # Ratio of lower bounds stays between 98% and 100% for k' in [4, 8].
    for point in result.points:
        assert 98.0 <= point.ratio_percent <= 100.0 + 1e-9, point
        if point.k_actual == point.k_configured:
            assert point.ratio_percent == 100.0


def _check_fig4(result) -> None:
    # All cells match the paper except the two source-corrupted entries.
    mismatched = {(c.n, c.r, c.x) for c in result.cells if c.matches_paper is False}
    assert mismatched == {(71, 4, 1), (71, 5, 3)}


def _check_fig5(result) -> None:
    by_combo = {(cdf.r, cdf.x): cdf for cdf in result.cdfs}
    # r <= 4: nearly every system size achieves gap <= 0.1.
    for r, x in [(2, 1), (3, 1), (4, 1), (4, 2)]:
        assert by_combo[(r, x)].fraction_at_most(0.1) > 0.9, (r, x)
    # r = 5, x in {2, 3}: only a small fraction achieves gap <= 0.1
    # (the paper: "only about 10% of the system sizes").
    for x in (2, 3):
        assert by_combo[(5, x)].fraction_at_most(0.1) < 0.2, x
    # Trivial strata (x + 1 = r) always have zero gap.
    for r in (2, 3, 4, 5):
        assert by_combo[(r, r - 1)].fraction_at_most(0.0) == 1.0


def _check_fig6(result) -> None:
    # mu <= 5 dramatically improves x = 3; mu <= 10 additionally x = 2.
    mu5, mu10 = result
    strict = run_experiment(
        fig5_module.default_spec(combos=((5, 2), (5, 3)))
    ).result()
    strict_by_x = {cdf.x: cdf for cdf in strict.cdfs}
    mu5_by_x = {cdf.x: cdf for cdf in mu5.cdfs}
    mu10_by_x = {cdf.x: cdf for cdf in mu10.cdfs}
    for x in (2, 3):
        at_mu1 = strict_by_x[x].fraction_at_most(0.05)
        at_mu5 = mu5_by_x[x].fraction_at_most(0.05)
        at_mu10 = mu10_by_x[x].fraction_at_most(0.05)
        assert at_mu5 >= at_mu1
        assert at_mu10 >= at_mu5
        assert at_mu10 > 0.9  # "dramatic" improvement, as in the paper


def _check_fig7(result) -> None:
    # The Theorem-2 limit is within ~10% of simulated Random placements
    # once b >= 600, justifying its use as the Fig. 9 baseline.
    for cell in result.cells:
        if cell.b >= 600:
            assert abs(cell.error_percent) <= 10.0, cell


def _check_fig8(result) -> None:
    by_key = {(e.n, e.r, e.s): dict(e.points) for e in result.series}
    # s = 1 decays fast; s = 5 stays essentially perfect (paper's axes).
    assert by_key[(71, 5, 1)][10] < 0.55
    assert by_key[(71, 5, 5)][10] > 0.998
    # At fixed s, bigger n is better and smaller r is better.
    assert by_key[(257, 3, 2)][8] >= by_key[(71, 3, 2)][8]
    assert by_key[(71, 3, 2)][8] >= by_key[(71, 5, 2)][8]
    # Monotone decay in k everywhere.
    for points in by_key.values():
        ks = sorted(points)
        assert all(points[a] >= points[b] for a, b in zip(ks, ks[1:]))


def _check_fig9(result) -> None:
    n = result.n
    # Trend 1 (paper Sec. IV-B): "Combo wins most of the time".
    cells = [cell for table in result.tables for cell in table.cells.values()]
    combo_wins = sum(1 for c in cells if c.winner == "combo")
    random_wins = sum(1 for c in cells if c.winner == "random")
    assert combo_wins > 2 * random_wins, (combo_wins, random_wins)

    # Trend 2: the r = s = 2 table becomes a clean Combo sweep once b is
    # large enough; the threshold scales with n.
    table22 = result.table_for(2, 2)
    sweep_from = 2400 if n <= 71 else 9600
    for (b, k), cell in table22.cells.items():
        if b >= sweep_from:
            assert cell.winner == "combo", (b, k)

    # Trend 3: within a settled row, improvement weakly decreases with k.
    for b in table22.b_values:
        if b < sweep_from:
            continue
        row = [
            table22.cells[(b, k)].improvement_percent for k in table22.k_values
        ]
        assert all(x >= y - 1e-9 for x, y in zip(row, row[1:])), (b, row)


def _check_fig10(results) -> None:
    by_n = {result.n: result for result in results}
    # Combo dominates both pure strata everywhere.
    for result in by_n.values():
        for row in result.rows:
            for k, combo_value in row.combo_percent.items():
                for per_k in row.simple_percent.values():
                    if not math.isnan(per_k[k]) and not math.isnan(combo_value):
                        assert combo_value >= per_k[k] - 1e-9

    # The paper's strict-mix anchor: n = 31, b = 4800, k in {5, 6}.
    n31 = by_n[31]
    row4800 = next(row for row in n31.rows if row.b == 4800)
    for k in (5, 6):
        assert row4800.combo_percent[k] > row4800.simple_percent[1][k]
        assert row4800.combo_percent[k] > row4800.simple_percent[2][k]

    # Lambda pressure: x = 1 lambda strictly grows with b.
    lams = [row.simple_lambdas[1] for row in n31.rows]
    assert lams == sorted(lams) and lams[-1] > lams[0]


def _check_fig11(result) -> None:
    by_key = {(e.n, e.r): dict(e.points) for e in result.series}
    # Paper anchor values at k = 10 (read off the plot).
    assert abs(by_key[(71, 5)][10] - 0.49) < 0.02
    assert abs(by_key[(71, 3)][10] - 0.655) < 0.02
    assert by_key[(257, 3)][10] > by_key[(71, 3)][10]
    # Slope ordering: decay steeper for larger r at fixed n.
    assert by_key[(71, 5)][10] < by_key[(71, 3)][10]
    assert by_key[(257, 5)][10] < by_key[(257, 3)][10]


def _check_appendix_a(result) -> None:
    by_key = {(c.n, c.r, c.b, c.k): c for c in result.cells}
    # Random wins the paper's regime (n = 71, r = 5, large b, k >= 3),
    # increasingly so in k.
    margins = [by_key[(71, 5, 38400, k)].margin for k in (3, 4, 5)]
    assert all(m < 0 for m in margins)
    assert margins[0] > margins[1] > margins[2]

    # Whoever wins, the margin is small against the total damage.
    for cell in result.cells:
        losses = cell.b - min(cell.lb_simple0, cell.pr_avail)
        assert abs(cell.margin) <= max(10, losses), cell

    # Both are poor: s = 1 losses dwarf s = 2 losses at the same point.
    cell = by_key[(71, 5, 38400, 5)]
    s1_random_losses = cell.b - cell.pr_avail
    s2_random_losses = cell.b - pr_avail_rnd(71, 5, 5, 2, 38400)
    assert s1_random_losses > 5 * s2_random_losses

    # Lemma 4 really is an upper bound on prAvail for every cell.
    for cell in result.cells:
        assert cell.pr_avail <= cell.lemma4_bound + 1


def _render_fig5(result) -> str:
    r5_plot = cdf_plot(
        [
            (f"x={cdf.x}", list(cdf.gaps))
            for cdf in result.cdfs
            if cdf.r == 5 and cdf.x in (1, 2, 3)
        ],
        title="Fig 5 (r=5): capacity-gap CDFs",
        x_label="capacity gap",
    )
    return result.render() + "\n\n" + r5_plot


def _render_fig8(result) -> str:
    panels = "\n\n".join(result.render_plot(s) for s in sorted(result.by_s()))
    return result.render() + "\n\n" + panels


def _render_fig11(result) -> str:
    return result.render() + "\n\n" + result.render_plot()


_CHECKS = {
    "fig2": _check_fig2,
    "fig3": _check_fig3,
    "fig4": _check_fig4,
    "fig5": _check_fig5,
    "fig6": _check_fig6,
    "fig7": _check_fig7,
    "fig8": _check_fig8,
    "fig9a": _check_fig9,
    "fig9b": _check_fig9,
    "fig10": _check_fig10,
    "fig11": _check_fig11,
    "appendix_a": _check_appendix_a,
}

#: Experiments whose recorded file adds plots to the kernel's tables.
_RENDERERS = {
    "fig5": _render_fig5,
    "fig8": _render_fig8,
    "fig11": _render_fig11,
}


@pytest.fixture(autouse=True)
def _catalog_knobs(monkeypatch):
    for knob in ("REPRO_EFFORT", "REPRO_REPS", "REPRO_B_MAX", "REPRO_WORKERS"):
        monkeypatch.delenv(knob, raising=False)


@pytest.mark.parametrize("name", figure_names())
def test_tables_match_reference(name):
    """The whole recorded file (tables and plots), then the paper trend."""
    spec = figure_spec(name)
    result = run_experiment(spec, workers=1).result()
    render = _RENDERERS.get(spec.experiment, kernel(spec.experiment).render)
    reference = (REFERENCES / f"{name}.txt").read_text(encoding="utf-8")
    assert render(result) + "\n" == reference
    _CHECKS[name](result)
