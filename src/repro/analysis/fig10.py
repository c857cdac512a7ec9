"""Fig. 10: breakdown of Combo placements into their Simple strata.

For r = s = 3 and n in {31, 71, 257} the paper shows, side by side, the
improvement over Random achieved by pure Simple(1, lambda), pure
Simple(2, lambda) (each with the minimal lambda of Eqn. 1, which the
tables annotate), and the DP-optimized Combo. The Combo column dominates:
it tracks whichever stratum wins and sometimes beats both by mixing.

The registered ``fig10`` experiment sweeps all three cluster sizes in one
spec (one shard per (n, b) row) and assembles one result per ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.common import PAPER_B_LADDER, percent
from repro.core.bounds import lb_avail_simple
from repro.core.combo import ComboStrategy
from repro.core.rand_analysis import pr_avail_rnd
from repro.core.subsystems import select_subsystem
from repro.designs.catalog import Existence
from repro.exp.registry import ExperimentKernel
from repro.exp.spec import ExperimentSpec
from repro.util.tables import TextTable


@dataclass(frozen=True)
class Fig10Row:
    b: int
    simple_lambdas: Dict[int, int]  # x -> minimal lambda
    simple_percent: Dict[int, Dict[int, float]]  # x -> {k: improvement %}
    combo_percent: Dict[int, float]  # k -> improvement %


@dataclass(frozen=True)
class Fig10Result:
    n: int
    r: int
    s: int
    x_values: Tuple[int, ...]
    k_values: Tuple[int, ...]
    rows: Tuple[Fig10Row, ...]

    def render(self) -> str:
        headers = ["b"]
        for x in self.x_values:
            headers.append(f"x={x}:lam")
            headers.extend(f"x={x}:k={k}" for k in self.k_values)
        headers.extend(f"combo:k={k}" for k in self.k_values)
        table = TextTable(
            headers,
            title=(
                f"Fig 10 (n={self.n}): Simple vs Combo improvement % "
                f"(r=s={self.r})"
            ),
        )
        for row in self.rows:
            cells: List[object] = [row.b]
            for x in self.x_values:
                cells.append(row.simple_lambdas.get(x))
                for k in self.k_values:
                    value = row.simple_percent.get(x, {}).get(k)
                    cells.append(f"{value:.0f}" if value == value else "-")
            for k in self.k_values:
                value = row.combo_percent[k]
                cells.append(f"{value:.0f}" if value == value else "-")
            table.add_row(cells)
        return table.render()


def _default_k_top(n: int) -> int:
    return 6 if n == 31 else (7 if n == 71 else 8)


def default_spec(
    n_values: Tuple[int, ...] = (31, 71, 257),
    r: int = 3,
    s: int = 3,
    x_values: Tuple[int, ...] = (1, 2),
    k_values: Optional[Tuple[int, ...]] = None,
    b_values: Tuple[int, ...] = tuple(PAPER_B_LADDER),
    tier: Existence = Existence.KNOWN,
) -> ExperimentSpec:
    return ExperimentSpec.build(
        "fig10",
        axes={"b": b_values},
        constants={
            "n_values": list(n_values),
            "r": r,
            "s": s,
            "x_values": list(x_values),
            "k_values": list(k_values) if k_values is not None else None,
            "tier": tier.name,
        },
    )


def _k_values_for(spec: ExperimentSpec, n: int) -> Tuple[int, ...]:
    explicit = spec.constant("k_values")
    if explicit is not None:
        return tuple(explicit)
    return tuple(range(spec.constant("s"), _default_k_top(n) + 1))


def _expand(spec: ExperimentSpec) -> List[dict]:
    return [
        {"n": n, "b": b, "k": k}
        for n in spec.constant("n_values")
        for b in spec.axis("b")
        for k in _k_values_for(spec, n)
    ]


def _run_group(spec: ExperimentSpec, cells) -> List[dict]:
    n, b = cells[0]["n"], cells[0]["b"]
    r, s = spec.constant("r"), spec.constant("s")
    tier = Existence[spec.constant("tier")]
    combo = ComboStrategy(n, r, s, tier=tier)
    lambdas: Dict[int, int] = {}
    for x in spec.constant("x_values"):
        subsystem = select_subsystem(n, r, x, tier=tier)
        if subsystem is not None:
            lambdas[x] = subsystem.minimal_lambda(b)
    out = []
    for cell in cells:
        k = cell["k"]
        pr = pr_avail_rnd(n, k, r, s, b)
        entry: Dict[str, object] = {
            "pr": pr,
            "combo_lb": combo.plan(b, k).lower_bound,
        }
        for x, lam in lambdas.items():
            entry[f"x{x}_lam"] = lam
            entry[f"x{x}_lb"] = lb_avail_simple(b, k, s, x, lam)
        out.append(entry)
    return out


def _assemble(spec: ExperimentSpec, cells, metrics) -> Tuple[Fig10Result, ...]:
    r, s = spec.constant("r"), spec.constant("s")
    x_values = tuple(spec.constant("x_values"))
    by_cell = {
        (cell["n"], cell["b"], cell["k"]): entry
        for cell, entry in zip(cells, metrics)
    }
    results: List[Fig10Result] = []
    for n in spec.constant("n_values"):
        k_values = _k_values_for(spec, n)
        rows: List[Fig10Row] = []
        for b in spec.axis("b"):
            simple_lambdas: Dict[int, int] = {}
            simple_percent: Dict[int, Dict[int, float]] = {}
            combo_percent: Dict[int, float] = {}
            first = by_cell[(n, b, k_values[0])] if k_values else {}
            for x in x_values:
                if f"x{x}_lam" not in first:
                    continue
                simple_lambdas[x] = first[f"x{x}_lam"]
                simple_percent[x] = {
                    k: percent(
                        by_cell[(n, b, k)][f"x{x}_lb"] - by_cell[(n, b, k)]["pr"],
                        b - by_cell[(n, b, k)]["pr"],
                    )
                    for k in k_values
                }
            for k in k_values:
                entry = by_cell[(n, b, k)]
                combo_percent[k] = percent(
                    entry["combo_lb"] - entry["pr"], b - entry["pr"]
                )
            rows.append(
                Fig10Row(
                    b=b,
                    simple_lambdas=simple_lambdas,
                    simple_percent=simple_percent,
                    combo_percent=combo_percent,
                )
            )
        results.append(
            Fig10Result(
                n=n, r=r, s=s, x_values=x_values, k_values=k_values,
                rows=tuple(rows),
            )
        )
    return tuple(results)


KERNELS = {
    "fig10": ExperimentKernel(
        name="fig10",
        expand=_expand,
        group_key=lambda spec, cell: (cell["n"], cell["b"]),
        run_group=_run_group,
        assemble=_assemble,
        render=lambda results: "\n\n".join(
            result.render() for result in results
        ),
    )
}
