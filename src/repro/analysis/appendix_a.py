"""Appendix A: the s = 1 case — both Simple(0, λ0) and Random are poor.

For s = 1 a Combo placement degenerates to Simple(0, λ0) (only the x = 0
stratum is admissible), and the paper reports that Random *slightly*
outperforms it under the Sec. IV-B measure ``lbAvail_co(λ0) − prAvail``,
while both lose a large fraction of objects (hence the case is relegated
to the appendix). This experiment reproduces that comparison and includes
the Lemma-4 upper bound for context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.combo import ComboStrategy
from repro.core.rand_analysis import lemma4_upper_bound, pr_avail_rnd
from repro.exp.registry import ExperimentKernel
from repro.exp.spec import ExperimentSpec
from repro.util.tables import TextTable


@dataclass(frozen=True)
class AppendixACell:
    n: int
    r: int
    b: int
    k: int
    lb_simple0: int
    pr_avail: int
    lemma4_bound: float

    @property
    def margin(self) -> int:
        """lbAvail_co(λ0) − prAvail; negative = Random (probably) wins."""
        return self.lb_simple0 - self.pr_avail


@dataclass(frozen=True)
class AppendixAResult:
    cells: Tuple[AppendixACell, ...]

    def render(self) -> str:
        table = TextTable(
            ["n", "r", "b", "k", "lb Simple(0)", "prAvail rnd", "margin",
             "Lemma4 bound"],
            title="Appendix A (s=1): Simple(0, lambda0) vs Random",
        )
        for cell in self.cells:
            table.add_row(
                [
                    cell.n,
                    cell.r,
                    cell.b,
                    cell.k,
                    cell.lb_simple0,
                    cell.pr_avail,
                    cell.margin,
                    round(cell.lemma4_bound, 1),
                ]
            )
        return table.render()

def default_spec(
    systems: Tuple[Tuple[int, int], ...] = ((71, 3), (71, 5), (257, 3), (257, 5)),
    b_values: Tuple[int, ...] = (600, 2400, 9600, 38400),
    k_values: Tuple[int, ...] = (1, 2, 3, 4, 5),
) -> ExperimentSpec:
    return ExperimentSpec.build(
        "appendix_a",
        axes={"b": b_values, "k": k_values},
        constants={"systems": [[n, r] for n, r in systems]},
    )


def _expand(spec: ExperimentSpec) -> List[dict]:
    return [
        {"n": n, "r": r, "b": b, "k": k}
        for n, r in spec.constant("systems")
        for b in spec.axis("b")
        for k in spec.axis("k")
    ]


def _run_group(spec: ExperimentSpec, cells) -> List[dict]:
    n, r = cells[0]["n"], cells[0]["r"]
    strategy = ComboStrategy(n, r, s=1)
    return [
        {
            "lb_simple0": strategy.plan(cell["b"], cell["k"]).lower_bound,
            "pr_avail": pr_avail_rnd(n, cell["k"], r, 1, cell["b"]),
            "lemma4": lemma4_upper_bound(n, cell["k"], r, cell["b"]),
        }
        for cell in cells
    ]


def _assemble(spec: ExperimentSpec, cells, metrics) -> AppendixAResult:
    return AppendixAResult(
        cells=tuple(
            AppendixACell(
                n=cell["n"],
                r=cell["r"],
                b=cell["b"],
                k=cell["k"],
                lb_simple0=entry["lb_simple0"],
                pr_avail=entry["pr_avail"],
                lemma4_bound=entry["lemma4"],
            )
            for cell, entry in zip(cells, metrics)
        )
    )


KERNELS = {
    "appendix_a": ExperimentKernel(
        name="appendix_a",
        expand=_expand,
        group_key=lambda spec, cell: (cell["n"], cell["r"]),
        run_group=_run_group,
        assemble=_assemble,
        render=lambda result: result.render(),
    )
}
