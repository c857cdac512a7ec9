"""Fig. 3: sensitivity of the Combo DP to the configured failure count k.

For a placement tuned for ``k`` failures but subjected to ``k'``, the paper
plots ``lbAvail_co(<lambda_x tuned for k>) / lbAvail_co(<lambda_x tuned for
k'>)`` (both evaluated at ``k'``) as a percentage; values near 100% mean
the DP's choice is robust to mis-estimating k.

Paper setting: r = 5, s = 3, k = 6; (n, b) in {(31, 4800), (71, 1200),
(257, 9600)}; k' in [4, 8]. One shard per (n, b) system shares its
ComboStrategy and the plan tuned for the configured k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.combo import ComboStrategy
from repro.designs.catalog import Existence
from repro.exp.registry import ExperimentKernel
from repro.exp.spec import ExperimentSpec
from repro.util.tables import TextTable


@dataclass(frozen=True)
class Fig3Point:
    n: int
    b: int
    k_configured: int
    k_actual: int
    bound_tuned_for_k: int
    bound_tuned_for_k_actual: int

    @property
    def ratio_percent(self) -> float:
        if self.bound_tuned_for_k_actual == 0:
            return float("nan")
        return 100.0 * self.bound_tuned_for_k / self.bound_tuned_for_k_actual


@dataclass(frozen=True)
class Fig3Result:
    r: int
    s: int
    k: int
    points: Tuple[Fig3Point, ...]

    def render(self) -> str:
        table = TextTable(
            ["n", "b", "k'", "lb(cfg k)", "lb(cfg k')", "ratio %"],
            title=(
                f"Fig 3: Combo sensitivity to configured k "
                f"(r={self.r}, s={self.s}, k={self.k})"
            ),
        )
        for p in self.points:
            table.add_row(
                [
                    p.n,
                    p.b,
                    p.k_actual,
                    p.bound_tuned_for_k,
                    p.bound_tuned_for_k_actual,
                    round(p.ratio_percent, 2),
                ]
            )
        return table.render()


def default_spec(
    r: int = 5,
    s: int = 3,
    k: int = 6,
    systems: Tuple[Tuple[int, int], ...] = ((31, 4800), (71, 1200), (257, 9600)),
    k_prime_range: Tuple[int, int] = (4, 8),
    tier: Existence = Existence.KNOWN,
) -> ExperimentSpec:
    return ExperimentSpec.build(
        "fig3",
        axes={"k_prime": list(range(k_prime_range[0], k_prime_range[1] + 1))},
        constants={
            "r": r,
            "s": s,
            "k": k,
            "systems": [[n, b] for n, b in systems],
            "tier": tier.name,
        },
    )


def _expand(spec: ExperimentSpec) -> List[dict]:
    return [
        {"n": n, "b": b, "k_prime": k_prime}
        for n, b in spec.constant("systems")
        for k_prime in spec.axis("k_prime")
    ]


def _run_group(spec: ExperimentSpec, cells) -> List[dict]:
    n, b = cells[0]["n"], cells[0]["b"]
    strategy = ComboStrategy(
        n, spec.constant("r"), spec.constant("s"),
        tier=Existence[spec.constant("tier")],
    )
    plan_for_k = strategy.plan(b, spec.constant("k"))
    return [
        {
            "lb_cfg_k": plan_for_k.lower_bound_at(cell["k_prime"]),
            "lb_cfg_kp": strategy.plan(b, cell["k_prime"]).lower_bound_at(
                cell["k_prime"]
            ),
        }
        for cell in cells
    ]


def _assemble(spec: ExperimentSpec, cells, metrics) -> Fig3Result:
    return Fig3Result(
        r=spec.constant("r"),
        s=spec.constant("s"),
        k=spec.constant("k"),
        points=tuple(
            Fig3Point(
                n=cell["n"],
                b=cell["b"],
                k_configured=spec.constant("k"),
                k_actual=cell["k_prime"],
                bound_tuned_for_k=entry["lb_cfg_k"],
                bound_tuned_for_k_actual=entry["lb_cfg_kp"],
            )
            for cell, entry in zip(cells, metrics)
        ),
    )


KERNELS = {
    "fig3": ExperimentKernel(
        name="fig3",
        expand=_expand,
        group_key=lambda spec, cell: (cell["n"], cell["b"]),
        run_group=_run_group,
        assemble=_assemble,
        render=lambda result: result.render(),
    )
}
