"""Fig. 7: how fast the Theorem-2 limit matches empirical Random placements.

``prAvail_rnd`` is an asymptotic (load -> infinity) estimate; the paper
validates it by simulating Random placements, attacking each with the
worst-case adversary, and plotting the percentage error
``(prAvail - avgAvail) / avgAvail`` against b. Error within ~10% by b = 600
justifies using prAvail as the comparison baseline in Fig. 9.

Paper settings: (n=31, r=5, s=3, k in 3..5) and (n=71, r=5, s=2, k in
2..5), b in {150 ... 9600}, 20 placements per point (REPRO_REPS overrides;
default 5 for bench runtime).

As an experiment spec, one shard = one Monte-Carlo sample — a
``(config, b, rep)`` triple owning its Random placement, warm engine and
incumbent-chained k-ladder — which gives the runner dozens of
independently schedulable shards per sweep. Per-rep placement and attack
randomness derive from the spec seed exactly as the hand-written loop
did, so results are bit-identical at any worker count.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.common import (
    FIG7_B_LADDER,
    adversary_effort,
    monte_carlo_reps,
    object_scale_cap,
)
from repro.core.batch import AttackCell, batch_attack
from repro.core.rand_analysis import pr_avail_rnd
from repro.core.random_placement import RandomStrategy
from repro.exp.registry import ExperimentKernel
from repro.exp.spec import ExperimentSpec
from repro.util.rng import derive_rng, spawn_seeds
from repro.util.tables import TextTable


@dataclass(frozen=True)
class Fig7Cell:
    n: int
    r: int
    s: int
    k: int
    b: int
    pr_avail: int
    avg_avail: float
    stdev_avail: float
    repetitions: int

    @property
    def error_percent(self) -> float:
        if self.avg_avail == 0:
            return float("nan")
        return 100.0 * (self.pr_avail - self.avg_avail) / self.avg_avail


@dataclass(frozen=True)
class Fig7Result:
    cells: Tuple[Fig7Cell, ...]

    def render(self) -> str:
        table = TextTable(
            ["n", "r", "s", "k", "b", "prAvail", "avgAvail", "err %", "reps"],
            title="Fig 7: prAvail_rnd vs empirical Random availability",
        )
        for cell in self.cells:
            table.add_row(
                [
                    cell.n,
                    cell.r,
                    cell.s,
                    cell.k,
                    cell.b,
                    cell.pr_avail,
                    round(cell.avg_avail, 1),
                    round(cell.error_percent, 1),
                    cell.repetitions,
                ]
            )
        return table.render()


def default_spec(
    configs: Tuple[Tuple[int, int, int, Tuple[int, ...]], ...] = (
        (31, 5, 3, (3, 4, 5)),
        (71, 5, 2, (2, 3, 4, 5)),
    ),
    b_values: Tuple[int, ...] = tuple(FIG7_B_LADDER),
    seed: int = 2015,
    effort: str = "",
    reps: int = 0,
) -> ExperimentSpec:
    """configs entries are (n, r, s, k_values)."""
    return ExperimentSpec.build(
        "fig7",
        axes={"b": b_values},
        constants={
            "configs": [[n, r, s, list(ks)] for n, r, s, ks in configs],
            "seed": seed,
            "effort": effort or adversary_effort(),
            "reps": reps or monte_carlo_reps(),
            "b_cap": object_scale_cap(),
        },
    )


def _expand(spec: ExperimentSpec) -> List[dict]:
    cap = spec.constant("b_cap")
    reps = spec.constant("reps")
    return [
        {"n": n, "r": r, "s": s, "b": b, "rep": rep, "k": k}
        for n, r, s, ks in spec.constant("configs")
        for b in spec.axis("b")
        if b <= cap
        for rep in range(reps)
        for k in ks
    ]


def _group_key(spec: ExperimentSpec, cell: dict):
    return (cell["n"], cell["r"], cell["s"], cell["b"], cell["rep"])


def _run_group(spec: ExperimentSpec, cells) -> List[dict]:
    n, r, s = cells[0]["n"], cells[0]["r"], cells[0]["s"]
    b, rep = cells[0]["b"], cells[0]["rep"]
    seed = spec.constant("seed")
    effort = spec.constant("effort")
    placement = RandomStrategy(n, r).place(
        b, derive_rng(seed, "fig7", n, r, b, rep)
    )
    # One batched pass per Monte-Carlo sample: the sample's k-ladder
    # shares one engine (incidence + threshold kernel) and chains
    # incumbents.
    grid = [AttackCell(cell["k"], s, effort) for cell in cells]
    [cell_seed] = spawn_seeds(seed, 1, "fig7-attack", n, r, b, rep)
    attacks = batch_attack(placement, grid, seed=cell_seed)
    return [{"avail": b - attack.damage} for attack in attacks]


def _assemble(spec: ExperimentSpec, cells, metrics) -> Fig7Result:
    reps = spec.constant("reps")
    avails: Dict[Tuple[int, int, int, int, int], List[int]] = {}
    for cell, entry in zip(cells, metrics):
        key = (cell["n"], cell["r"], cell["s"], cell["b"], cell["k"])
        avails.setdefault(key, []).append(entry["avail"])
    out: List[Fig7Cell] = []
    cap = spec.constant("b_cap")
    for n, r, s, ks in spec.constant("configs"):
        for b in spec.axis("b"):
            if b > cap:
                continue
            for k in ks:
                samples = avails[(n, r, s, b, k)]
                out.append(
                    Fig7Cell(
                        n=n,
                        r=r,
                        s=s,
                        k=k,
                        b=b,
                        pr_avail=pr_avail_rnd(n, k, r, s, b),
                        avg_avail=statistics.fmean(samples),
                        stdev_avail=(
                            statistics.pstdev(samples)
                            if len(samples) > 1 else 0.0
                        ),
                        repetitions=reps,
                    )
                )
    return Fig7Result(cells=tuple(out))


KERNELS = {
    "fig7": ExperimentKernel(
        name="fig7",
        expand=_expand,
        group_key=_group_key,
        run_group=_run_group,
        assemble=_assemble,
        render=lambda result: result.render(),
        group_cost=lambda spec, key, cells: key[3] * len(cells),
    )
}
