"""Fig. 4: the table of subsystem orders n_x used by the paper.

For each cluster size n in {31, 71, 257} and r in [2, 5], the paper lists
the Steiner-system order ``n_x <= n`` used for each stratum x (with
mu_x = 1). We recompute the table from the existence catalog and flag the
two cells where the source text is internally inconsistent:
the catalog yields 64 where the text prints "70" for (n=71, r=4, x=1) —
70 violates the v = 1, 4 (mod 12) divisibility condition — and 47 where it
prints "71" for (n=71, r=5, x=3) — no S(4,5,71) is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.designs.catalog import Existence, largest_order
from repro.exp.registry import ExperimentKernel
from repro.exp.spec import ExperimentSpec
from repro.util.tables import TextTable

#: The values printed in the paper's Fig. 4, for comparison. ``None`` marks
#: x strata the paper does not list (x = 0 partitions are implicit).
PAPER_FIG4: Dict[Tuple[int, int, int], Optional[int]] = {
    # (n, r, x): n_x    -- r=2
    (31, 2, 1): 31, (71, 2, 1): 71, (257, 2, 1): 257,
    # r=3
    (31, 3, 1): 31, (31, 3, 2): 31,
    (71, 3, 1): 69, (71, 3, 2): 71,
    (257, 3, 1): 255, (257, 3, 2): 257,
    # r=4
    (31, 4, 1): 28, (31, 4, 2): 28, (31, 4, 3): 31,
    (71, 4, 1): 70, (71, 4, 2): 70, (71, 4, 3): 71,
    (257, 4, 1): 256, (257, 4, 2): 256, (257, 4, 3): 257,
    # r=5
    (31, 5, 1): 25, (31, 5, 2): 26, (31, 5, 3): 23, (31, 5, 4): 31,
    (71, 5, 1): 65, (71, 5, 2): 65, (71, 5, 3): 71, (71, 5, 4): 71,
    (257, 5, 1): 245, (257, 5, 2): 257, (257, 5, 3): 243, (257, 5, 4): 257,
}


@dataclass(frozen=True)
class Fig4Cell:
    n: int
    r: int
    x: int
    nx_catalog: Optional[int]
    nx_constructible: Optional[int]
    nx_paper: Optional[int]

    @property
    def matches_paper(self) -> Optional[bool]:
        if self.nx_paper is None:
            return None
        return self.nx_paper == self.nx_catalog


@dataclass(frozen=True)
class Fig4Result:
    cells: Tuple[Fig4Cell, ...]

    def render(self) -> str:
        table = TextTable(
            ["n", "r", "x", "n_x (catalog)", "n_x (constructible)", "paper", "match"],
            title="Fig 4: subsystem orders n_x (mu = 1)",
        )
        for cell in self.cells:
            match = cell.matches_paper
            table.add_row(
                [
                    cell.n,
                    cell.r,
                    cell.x,
                    cell.nx_catalog,
                    cell.nx_constructible,
                    cell.nx_paper,
                    {None: "-", True: "yes", False: "DIFFERS"}[match],
                ]
            )
        return table.render()


def default_spec(
    n_values: Tuple[int, ...] = (31, 71, 257),
    r_values: Tuple[int, ...] = (2, 3, 4, 5),
) -> ExperimentSpec:
    return ExperimentSpec.build(
        "fig4", axes={"n": n_values, "r": r_values}
    )


def _expand(spec: ExperimentSpec) -> List[dict]:
    return [
        {"n": n, "r": r, "x": x}
        for n in spec.axis("n")
        for r in spec.axis("r")
        for x in range(1, r)
    ]


def _run_group(spec: ExperimentSpec, cells) -> List[dict]:
    out = []
    for cell in cells:
        t = cell["x"] + 1
        out.append(
            {
                "nx_catalog": largest_order(
                    cell["n"], cell["r"], t, Existence.KNOWN
                ),
                "nx_constructible": largest_order(
                    cell["n"], cell["r"], t, Existence.CONSTRUCTIBLE
                ),
            }
        )
    return out


def _assemble(spec: ExperimentSpec, cells, metrics) -> Fig4Result:
    return Fig4Result(
        cells=tuple(
            Fig4Cell(
                n=cell["n"],
                r=cell["r"],
                x=cell["x"],
                nx_catalog=entry["nx_catalog"],
                nx_constructible=entry["nx_constructible"],
                nx_paper=PAPER_FIG4.get((cell["n"], cell["r"], cell["x"])),
            )
            for cell, entry in zip(cells, metrics)
        )
    )


KERNELS = {
    "fig4": ExperimentKernel(
        name="fig4",
        expand=_expand,
        group_key=lambda spec, cell: (cell["n"], cell["r"]),
        run_group=_run_group,
        assemble=_assemble,
        render=lambda result: result.render(),
    )
}
