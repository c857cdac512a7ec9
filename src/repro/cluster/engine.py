"""Scenario driver: placement -> failure injection -> measurement."""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.failures import RandomInjector, WorstCaseInjector, fail_specific
from repro.cluster.metrics import LoadStats, ScenarioReport
from repro.cluster.objects import LivenessRule
from repro.core.batch import AttackCell, batch_attack
from repro.core.placement import Placement
from repro.util.rng import derive_rng


def run_attack_scenario(
    placement: Placement,
    k: int,
    rule: LivenessRule,
    effort: str = "auto",
    racks: int = 1,
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> ScenarioReport:
    """Deploy ``placement`` on a fresh cluster and apply a worst-case attack.

    The attack goes through the warm batch engine: repeating a scenario on
    a structurally unchanged placement reuses kernel state and (with the
    default derived randomness, ``rng=None``) the memoized attack result.
    """
    cluster = Cluster(placement.n, racks=racks)
    cluster.apply_placement(placement)
    injector = WorstCaseInjector(effort=effort, rng=rng, seed=seed)
    failed = injector.inject(cluster, k, rule)
    lost = len(cluster.dead_objects(rule))
    return ScenarioReport(
        strategy=placement.strategy or "unknown",
        b=placement.b,
        k=k,
        s=rule.s,
        failed_nodes=tuple(failed),
        objects_lost=lost,
        load=LoadStats.from_loads(cluster.loads()),
    )


def run_attack_grid(
    placement: Placement,
    k_values: Sequence[int],
    rule: LivenessRule,
    effort: str = "auto",
    racks: int = 1,
    seed: int = 0,
) -> List[ScenarioReport]:
    """Deploy once, then worst-case attack every ``k`` in one batched pass.

    The whole grid shares one warm engine (incidence + per-threshold
    kernels, persistent across calls) and chains incumbents (the k-attack
    seeds the k+1 search) via the batch engine — the failed nodes are then
    replayed on the cluster (recovering between cells) so each report
    reflects real cluster state, not just search output. Re-running the
    same grid is served from the attack memo.
    """
    cluster = Cluster(placement.n, racks=racks)
    cluster.apply_placement(placement)
    cells = [AttackCell(k, rule.s, effort) for k in k_values]
    attacks = batch_attack(placement, cells, seed=seed)
    reports = []
    for cell, attack in zip(cells, attacks):
        failed = fail_specific(cluster, attack.nodes)
        lost = len(cluster.dead_objects(rule))
        reports.append(
            ScenarioReport(
                strategy=placement.strategy or "unknown",
                b=placement.b,
                k=cell.k,
                s=rule.s,
                failed_nodes=tuple(failed),
                objects_lost=lost,
                load=LoadStats.from_loads(cluster.loads()),
            )
        )
        cluster.recover_all()
    return reports


def run_random_failure_scenario(
    placement: Placement,
    k: int,
    rule: LivenessRule,
    repetitions: int = 20,
    racks: int = 1,
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> List[ScenarioReport]:
    """Deploy once, fail k random nodes ``repetitions`` times (recovering between).

    Parameter parity with :func:`run_attack_scenario`: ``racks`` deploys
    onto the same rack topology (uniform node draws are rack-oblivious,
    so it changes no numbers — it exists so callers can swap injectors
    without reshaping the call) and, with ``rng=None``, the failure
    draws derive deterministically from ``(seed, k, s)`` — the same
    derived-seed discipline as the attack scenarios, so repeated runs
    replay bit-for-bit without threading a generator through.
    """
    rng = rng or derive_rng(seed, "random-failures", k, rule.s)
    cluster = Cluster(placement.n, racks=racks)
    cluster.apply_placement(placement)
    injector = RandomInjector(rng=rng)
    reports = []
    for _ in range(repetitions):
        failed = injector.inject(cluster, k, rule)
        lost = len(cluster.dead_objects(rule))
        reports.append(
            ScenarioReport(
                strategy=placement.strategy or "unknown",
                b=placement.b,
                k=k,
                s=rule.s,
                failed_nodes=tuple(failed),
                objects_lost=lost,
                load=LoadStats.from_loads(cluster.loads()),
            )
        )
        cluster.recover_all()
    return reports


def compare_strategies(
    placements: List[Placement],
    k: int,
    rule: LivenessRule,
    effort: str = "auto",
) -> List[ScenarioReport]:
    """Worst-case-attack every placement; one report per strategy."""
    return [run_attack_scenario(p, k, rule, effort=effort) for p in placements]


def run_churn_scenario(
    adaptive,
    events,
    k: int,
    rule: LivenessRule,
    measure_every: int = 16,
    effort: str = "fast",
    on_sample: Optional[Callable[[int, int, int, int], None]] = None,
):
    """Drive an AdaptiveComboPlacement through a churn trace with periodic attacks.

    Every ``measure_every`` events the current population is snapshotted,
    attacked with a worst-case injector, and (optionally) reported through
    ``on_sample(step, b, available, lower_bound)``. Snapshots of an
    unchanged population hit the attack memo (structural fingerprint
    keying), so measurement frequency can be cranked up without paying for
    redundant searches.
    """
    from repro.cluster.workload import ChurnKind  # local to avoid cycle at import

    rng = random.Random(1)
    live: List[int] = []
    for step, event in enumerate(events):
        if event.kind == ChurnKind.ARRIVAL:
            live.append(adaptive.add_object())
        elif live:
            victim = live.pop(rng.randrange(len(live)))
            adaptive.remove_object(victim)
        if live and step % measure_every == measure_every - 1:
            placement = adaptive.placement()
            report = run_attack_scenario(placement, k, rule, effort=effort)
            if on_sample is not None:
                on_sample(
                    step,
                    placement.b,
                    report.objects_available,
                    adaptive.lower_bound(),
                )
    return live
