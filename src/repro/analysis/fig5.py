"""Figs. 5 and 6: capacity-gap CDFs over system sizes n in [50, 800].

For each (r, x) the paper asks: decomposing n nodes into at most m = 3
chunks carrying known Steiner systems, what fraction of the ideal Lemma-1
capacity is lost ("capacity gap")? Fig. 5 uses mu = 1; Fig. 6 revisits the
hard cases (r = 5, x in {2, 3}) allowing mu <= 5 and mu <= 10, where the
catalog falls back to divisibility-admissible parameter sets: the
``DIVISIBILITY`` tier of :class:`~repro.designs.catalog.Existence`, which
is optimistic, since the necessary conditions do not prove a design exists.

Both figures are experiment specs over the ``fig5``/``fig6`` kernels: one
cell per (r, x, n) capacity-gap evaluation, one shard per CDF curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.subsystems import capacity_gap
from repro.designs.catalog import Existence
from repro.exp.registry import ExperimentKernel
from repro.exp.spec import ExperimentSpec
from repro.util.tables import TextTable


@dataclass(frozen=True)
class GapCDF:
    r: int
    x: int
    max_mu: int
    tier: Existence
    gaps: Tuple[float, ...]  # one per n, unsorted

    def fraction_at_most(self, threshold: float) -> float:
        if not self.gaps:
            return 0.0
        return sum(1 for g in self.gaps if g <= threshold + 1e-12) / len(self.gaps)

    def cdf_points(self, thresholds: Sequence[float]) -> List[Tuple[float, float]]:
        return [(t, self.fraction_at_most(t)) for t in thresholds]


@dataclass(frozen=True)
class Fig5Result:
    n_range: Tuple[int, int]
    max_chunks: int
    cdfs: Tuple[GapCDF, ...]

    def render(self, thresholds: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)) -> str:
        table = TextTable(
            ["r", "x", "mu<=", *[f"gap<={t:g}" for t in thresholds]],
            title=(
                f"Figs 5-6: capacity-gap CDFs, n in [{self.n_range[0]}, "
                f"{self.n_range[1]}], chunks <= {self.max_chunks}"
            ),
        )
        for cdf in self.cdfs:
            table.add_row(
                [
                    cdf.r,
                    cdf.x,
                    cdf.max_mu,
                    *[round(frac, 3) for _, frac in cdf.cdf_points(thresholds)],
                ]
            )
        return table.render()


def default_spec(
    combos: Sequence[Tuple[int, int]] = (
        (2, 0), (2, 1),
        (3, 0), (3, 1), (3, 2),
        (4, 0), (4, 1), (4, 2), (4, 3),
        (5, 0), (5, 1), (5, 2), (5, 3), (5, 4),
    ),
    n_range: Tuple[int, int] = (50, 800),
    max_chunks: int = 3,
    max_mu: int = 1,
    tier: Existence = Existence.KNOWN,
) -> ExperimentSpec:
    """Fig. 5's sweep (defaults) or Fig. 6's (combos/(max_mu, tier) overridden)."""
    return ExperimentSpec.build(
        "fig5",
        axes={"n": list(range(n_range[0], n_range[1] + 1))},
        constants={
            "combos": [[r, x] for r, x in combos],
            "max_chunks": max_chunks,
            "max_mu": max_mu,
            "tier": tier.name,
        },
    )


def default_spec_fig6(
    n_range: Tuple[int, int] = (50, 800),
    max_chunks: int = 3,
) -> ExperimentSpec:
    """Fig. 6: the r = 5, x in {2, 3} cases, swept over mu <= 5 and <= 10."""
    return ExperimentSpec.build(
        "fig6",
        axes={
            "n": list(range(n_range[0], n_range[1] + 1)),
            "max_mu": (5, 10),
        },
        constants={
            "combos": [[5, 2], [5, 3]],
            "max_chunks": max_chunks,
            "tier": Existence.DIVISIBILITY.name,
        },
    )


def _expand(spec: ExperimentSpec) -> List[dict]:
    return [
        {"r": r, "x": x, "n": n}
        for r, x in spec.constant("combos")
        for n in spec.axis("n")
    ]


def _expand_fig6(spec: ExperimentSpec) -> List[dict]:
    return [
        {"max_mu": max_mu, "r": r, "x": x, "n": n}
        for max_mu in spec.axis("max_mu")
        for r, x in spec.constant("combos")
        for n in spec.axis("n")
    ]


def _run_group(spec: ExperimentSpec, cells) -> List[dict]:
    tier = Existence[spec.constant("tier")]
    max_chunks = spec.constant("max_chunks")
    return [
        {
            "gap": capacity_gap(
                cell["n"],
                cell["r"],
                cell["x"],
                tier=tier,
                max_mu=cell.get("max_mu", spec.constant("max_mu", None)),
                max_chunks=max_chunks,
            )
        }
        for cell in cells
    ]


def _cdfs_from(spec, cells, metrics, max_mu_of, tier) -> List[GapCDF]:
    curves: dict = {}
    order: List[tuple] = []
    for cell, entry in zip(cells, metrics):
        key = (max_mu_of(cell), cell["r"], cell["x"])
        if key not in curves:
            curves[key] = []
            order.append(key)
        curves[key].append(entry["gap"])
    return [
        GapCDF(
            r=r, x=x, max_mu=max_mu, tier=tier, gaps=tuple(curves[(max_mu, r, x)])
        )
        for max_mu, r, x in order
    ]


def _assemble(spec: ExperimentSpec, cells, metrics) -> Fig5Result:
    n_values = spec.axis("n")
    tier = Existence[spec.constant("tier")]
    cdfs = _cdfs_from(
        spec, cells, metrics, lambda cell: spec.constant("max_mu"), tier
    )
    return Fig5Result(
        n_range=(n_values[0], n_values[-1]),
        max_chunks=spec.constant("max_chunks"),
        cdfs=tuple(cdfs),
    )


def _assemble_fig6(spec: ExperimentSpec, cells, metrics) -> Tuple[Fig5Result, Fig5Result]:
    n_values = spec.axis("n")
    tier = Existence[spec.constant("tier")]
    cdfs = _cdfs_from(spec, cells, metrics, lambda cell: cell["max_mu"], tier)
    results = []
    for max_mu in spec.axis("max_mu"):
        results.append(
            Fig5Result(
                n_range=(n_values[0], n_values[-1]),
                max_chunks=spec.constant("max_chunks"),
                cdfs=tuple(cdf for cdf in cdfs if cdf.max_mu == max_mu),
            )
        )
    return results[0], results[1]


KERNELS = {
    "fig5": ExperimentKernel(
        name="fig5",
        expand=_expand,
        group_key=lambda spec, cell: (cell["r"], cell["x"]),
        run_group=_run_group,
        assemble=_assemble,
        render=lambda result: result.render(),
    ),
    "fig6": ExperimentKernel(
        name="fig6",
        expand=_expand_fig6,
        group_key=lambda spec, cell: (cell["max_mu"], cell["r"], cell["x"]),
        run_group=_run_group,
        assemble=_assemble_fig6,
        render=lambda results: (
            results[0].render() + "\n\n" + results[1].render()
        ),
    ),
}
