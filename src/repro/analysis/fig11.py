"""Fig. 11: the Lemma-4 decay of Random availability when s = 1.

``prAvail_rnd <= b (1 - 1/b)^{k floor(l)}`` with ``l = r b / n``: with
write-all style objects, Random's availability (as a fraction of b) decays
essentially linearly in k with slope governed by r/n. Setting: b = 38400,
(n, r) in {(71,3), (71,5), (257,3), (257,5)}, k in [1, 10] (Lemma 4 needs
k < n/2, comfortably satisfied).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.rand_analysis import lemma4_upper_bound
from repro.exp.registry import ExperimentKernel
from repro.exp.spec import ExperimentSpec
from repro.util.asciiplot import Series, line_plot
from repro.util.tables import TextTable


@dataclass(frozen=True)
class Fig11Series:
    n: int
    r: int
    points: Tuple[Tuple[int, float], ...]  # (k, bound / b)


@dataclass(frozen=True)
class Fig11Result:
    b: int
    series: Tuple[Fig11Series, ...]

    def render(self) -> str:
        k_values = [k for k, _ in self.series[0].points]
        table = TextTable(
            ["k", *[f"n={e.n},r={e.r}" for e in self.series]],
            title=f"Fig 11: Lemma-4 bound (1 - 1/b)^(k*floor(l)) for b={self.b}",
        )
        for i, k in enumerate(k_values):
            table.add_row([k, *[round(e.points[i][1], 5) for e in self.series]])
        return table.render()

    def render_plot(self, width: int = 64, height: int = 14) -> str:
        """ASCII curves matching the paper's plot shape."""
        return _render_plot(self, width=width, height=height)


def _render_plot(result: "Fig11Result", width: int = 64, height: int = 14) -> str:
    series = [
        Series.from_pairs(f"n={e.n},r={e.r}", list(e.points))
        for e in result.series
    ]
    return line_plot(
        series,
        width=width,
        height=height,
        title=f"Fig 11: Lemma-4 bound / b vs k (b={result.b})",
        x_label="k",
    )


def default_spec(
    b: int = 38400,
    systems: Tuple[Tuple[int, int], ...] = ((71, 3), (71, 5), (257, 3), (257, 5)),
    k_max: int = 10,
) -> ExperimentSpec:
    return ExperimentSpec.build(
        "fig11",
        axes={"k": list(range(1, k_max + 1))},
        constants={"b": b, "systems": [[n, r] for n, r in systems]},
    )


def _expand(spec: ExperimentSpec) -> List[dict]:
    return [
        {"n": n, "r": r, "k": k}
        for n, r in spec.constant("systems")
        for k in spec.axis("k")
    ]


def _run_group(spec: ExperimentSpec, cells) -> List[dict]:
    b = spec.constant("b")
    return [
        {
            "fraction": lemma4_upper_bound(
                cell["n"], cell["k"], cell["r"], b
            ) / b
        }
        for cell in cells
    ]


def _assemble(spec: ExperimentSpec, cells, metrics) -> Fig11Result:
    curves: dict = {}
    order: List[Tuple[int, int]] = []
    for cell, entry in zip(cells, metrics):
        key = (cell["n"], cell["r"])
        if key not in curves:
            curves[key] = []
            order.append(key)
        curves[key].append((cell["k"], entry["fraction"]))
    return Fig11Result(
        b=spec.constant("b"),
        series=tuple(
            Fig11Series(n=n, r=r, points=tuple(curves[(n, r)]))
            for n, r in order
        ),
    )


KERNELS = {
    "fig11": ExperimentKernel(
        name="fig11",
        expand=_expand,
        group_key=lambda spec, cell: (cell["n"], cell["r"]),
        run_group=_run_group,
        assemble=_assemble,
        render=lambda result: result.render(),
    )
}
