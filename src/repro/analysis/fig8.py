"""Fig. 8: ``prAvail_rnd / b`` as a function of k, for s in 1..5.

The paper's takeaway: Random placements handle larger fatality thresholds
(s -> r) dramatically better, and the s = 1 case is hopeless (further
treated in Appendix A / Fig. 11). Setting: b = 38400, (n, r) in
{(71,3), (71,5), (257,3), (257,5)} (r >= s only), k in [max(1, s), 10].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.rand_analysis import pr_avail_fraction
from repro.exp.registry import ExperimentKernel
from repro.exp.spec import ExperimentSpec
from repro.util.asciiplot import Series, line_plot
from repro.util.tables import TextTable


@dataclass(frozen=True)
class Fig8Series:
    n: int
    r: int
    s: int
    points: Tuple[Tuple[int, float], ...]  # (k, prAvail/b)


@dataclass(frozen=True)
class Fig8Result:
    b: int
    series: Tuple[Fig8Series, ...]

    def by_s(self) -> Dict[int, List[Fig8Series]]:
        grouped: Dict[int, List[Fig8Series]] = {}
        for entry in self.series:
            grouped.setdefault(entry.s, []).append(entry)
        return grouped

    def render(self) -> str:
        sections = []
        for s, entries in sorted(self.by_s().items()):
            k_values = [k for k, _ in entries[0].points]
            table = TextTable(
                ["k", *[f"n={e.n},r={e.r}" for e in entries]],
                title=f"Fig 8 (s={s}): prAvail_rnd / b for b={self.b}",
            )
            for i, k in enumerate(k_values):
                table.add_row([k, *[round(e.points[i][1], 5) for e in entries]])
            sections.append(table.render())
        return "\n\n".join(sections)

    def render_plot(self, s: int, width: int = 64, height: int = 14) -> str:
        """ASCII curves for one ``s`` panel (the shape of the paper's plot)."""
        entries = self.by_s().get(s)
        if not entries:
            raise ValueError(f"no series for s={s}")
        series = [
            Series.from_pairs(f"n={e.n},r={e.r}", list(e.points)) for e in entries
        ]
        return line_plot(
            series,
            width=width,
            height=height,
            title=f"Fig 8 (s={s}): prAvail/b vs k (b={self.b})",
            x_label="k",
        )


def default_spec(
    b: int = 38400,
    systems: Tuple[Tuple[int, int], ...] = ((71, 3), (71, 5), (257, 3), (257, 5)),
    s_values: Tuple[int, ...] = (1, 2, 3, 4, 5),
    k_max: int = 10,
) -> ExperimentSpec:
    return ExperimentSpec.build(
        "fig8",
        axes={"s": s_values},
        constants={
            "b": b,
            "systems": [[n, r] for n, r in systems],
            "k_max": k_max,
        },
    )


def _expand(spec: ExperimentSpec) -> List[dict]:
    k_max = spec.constant("k_max")
    return [
        {"s": s, "n": n, "r": r, "k": k}
        for s in spec.axis("s")
        for n, r in spec.constant("systems")
        if s <= r
        for k in range(max(1, s), k_max + 1)
    ]


def _run_group(spec: ExperimentSpec, cells) -> List[dict]:
    b = spec.constant("b")
    return [
        {
            "fraction": pr_avail_fraction(
                cell["n"], cell["k"], cell["r"], cell["s"], b
            )
        }
        for cell in cells
    ]


def _assemble(spec: ExperimentSpec, cells, metrics) -> Fig8Result:
    curves: Dict[Tuple[int, int, int], List[Tuple[int, float]]] = {}
    order: List[Tuple[int, int, int]] = []
    for cell, entry in zip(cells, metrics):
        key = (cell["s"], cell["n"], cell["r"])
        if key not in curves:
            curves[key] = []
            order.append(key)
        curves[key].append((cell["k"], entry["fraction"]))
    return Fig8Result(
        b=spec.constant("b"),
        series=tuple(
            Fig8Series(n=n, r=r, s=s, points=tuple(curves[(s, n, r)]))
            for s, n, r in order
        ),
    )


KERNELS = {
    "fig8": ExperimentKernel(
        name="fig8",
        expand=_expand,
        group_key=lambda spec, cell: (cell["s"], cell["n"], cell["r"]),
        run_group=_run_group,
        assemble=_assemble,
        render=lambda result: result.render(),
    )
}
