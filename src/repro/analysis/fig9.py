"""Fig. 9: the paper's headline tables — Combo vs Random.

Every cell compares the Combo DP's availability lower bound against
Random's probable availability, normalized by the most Random could be
improved upon:

    cell = 100 * (lbAvail_co - prAvail_rnd) / (b - prAvail_rnd)

White cells (positive) mean Combo *guarantees* more availability than
Random probably achieves; dark cells (negative) mean Random probably wins.
Fig. 9a is n = 71 (k in [s, 7]); Fig. 9b is n = 257 (k in [s, 8]).

The analytic tables run as the ``fig9`` experiment kernel (one shard per
(r, s) table, sharing its ComboStrategy); ``fig9a``/``fig9b`` in the
figure catalog are just two default specs over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.common import PAPER_B_LADDER, percent
from repro.core.combo import ComboStrategy
from repro.core.rand_analysis import pr_avail_rnd
from repro.designs.catalog import Existence
from repro.exp.registry import ExperimentKernel
from repro.exp.spec import ExperimentSpec
from repro.util.tables import format_grid


@dataclass(frozen=True)
class Fig9Cell:
    b: int
    k: int
    lb_combo: int
    pr_avail: int

    @property
    def improvement_percent(self) -> float:
        """(lb - pr) / (b - pr) as a percentage; nan when Random is perfect."""
        return percent(self.lb_combo - self.pr_avail, self.b - self.pr_avail)

    @property
    def winner(self) -> str:
        if self.lb_combo > self.pr_avail:
            return "combo"
        if self.lb_combo < self.pr_avail:
            return "random"
        return "tie"


@dataclass(frozen=True)
class Fig9Table:
    n: int
    r: int
    s: int
    b_values: Tuple[int, ...]
    k_values: Tuple[int, ...]
    cells: Dict[Tuple[int, int], Fig9Cell]  # (b, k) -> cell

    def grid_percent(self) -> List[List[float]]:
        return [
            [self.cells[(b, k)].improvement_percent for k in self.k_values]
            for b in self.b_values
        ]

    def render(self) -> str:
        values = [
            [f"{cell:.0f}" if cell == cell else "-" for cell in row]
            for row in self.grid_percent()
        ]
        return format_grid(
            list(self.b_values),
            list(self.k_values),
            values,
            corner="b\\k",
            title=f"Fig 9 (n={self.n}): r={self.r}, s={self.s} — improvement %",
        )


@dataclass(frozen=True)
class Fig9Result:
    n: int
    tables: Tuple[Fig9Table, ...]

    def table_for(self, r: int, s: int) -> Optional[Fig9Table]:
        for table in self.tables:
            if table.r == r and table.s == s:
                return table
        return None

    def render(self) -> str:
        return "\n\n".join(table.render() for table in self.tables)


def default_spec(
    n: int,
    k_max: int,
    r_values: Tuple[int, ...] = (2, 3, 4, 5),
    b_values: Tuple[int, ...] = tuple(PAPER_B_LADDER),
    tier: Existence = Existence.KNOWN,
) -> ExperimentSpec:
    return ExperimentSpec.build(
        "fig9",
        axes={"b": b_values},
        constants={
            "n": n,
            "k_max": k_max,
            "r_values": list(r_values),
            "tier": tier.name,
        },
    )


def default_spec_a() -> ExperimentSpec:
    """Fig. 9a: n = 71, k up to 7."""
    return default_spec(71, 7)


def default_spec_b() -> ExperimentSpec:
    """Fig. 9b: n = 257, k up to 8."""
    return default_spec(257, 8)


def _expand(spec: ExperimentSpec) -> List[dict]:
    k_max = spec.constant("k_max")
    return [
        {"r": r, "s": s, "b": b, "k": k}
        for r in spec.constant("r_values")
        for s in range(2, r + 1)
        for b in spec.axis("b")
        for k in range(s, k_max + 1)
    ]


def _run_group(spec: ExperimentSpec, cells) -> List[dict]:
    n = spec.constant("n")
    r, s = cells[0]["r"], cells[0]["s"]
    strategy = ComboStrategy(n, r, s, tier=Existence[spec.constant("tier")])
    return [
        {
            "lb": strategy.plan(cell["b"], cell["k"]).lower_bound,
            "pr": pr_avail_rnd(n, cell["k"], r, s, cell["b"]),
        }
        for cell in cells
    ]


def _assemble(spec: ExperimentSpec, cells, metrics) -> Fig9Result:
    n = spec.constant("n")
    k_max = spec.constant("k_max")
    b_values = tuple(spec.axis("b"))
    grid: Dict[Tuple[int, int], Dict[Tuple[int, int], Fig9Cell]] = {}
    for cell, entry in zip(cells, metrics):
        grid.setdefault((cell["r"], cell["s"]), {})[(cell["b"], cell["k"])] = (
            Fig9Cell(
                b=cell["b"], k=cell["k"],
                lb_combo=entry["lb"], pr_avail=entry["pr"],
            )
        )
    tables: List[Fig9Table] = []
    for r in spec.constant("r_values"):
        for s in range(2, r + 1):
            tables.append(
                Fig9Table(
                    n=n,
                    r=r,
                    s=s,
                    b_values=b_values,
                    k_values=tuple(range(s, k_max + 1)),
                    cells=grid.get((r, s), {}),
                )
            )
    return Fig9Result(n=n, tables=tuple(tables))


KERNELS = {
    "fig9": ExperimentKernel(
        name="fig9",
        expand=_expand,
        group_key=lambda spec, cell: (cell["r"], cell["s"]),
        run_group=_run_group,
        assemble=_assemble,
        render=lambda result: result.render(),
    )
}
