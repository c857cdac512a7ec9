"""repro: worst-case availability replica placement (ICDCS 2015 reproduction).

A from-scratch implementation of Li, Gao & Reiter, *Replica Placement for
Availability in the Worst Case* (ICDCS 2015): t-packing-based Simple and
Combo placement strategies, the load-balanced Random baseline, exact and
heuristic worst-case failure adversaries, the analytical availability
bounds (Lemmas 1-4, Theorems 1-2), the combinatorial design substrate the
placements are built from, and a cluster simulator for end-to-end
scenarios.

Quickstart::

    from repro import ComboStrategy, RandomStrategy, evaluate_availability

    combo = ComboStrategy(n=71, r=3, s=2)
    plan = combo.plan(b=1200, k=3)          # DP of Sec. III-B1
    placement = combo.place(b=1200, k=3)    # concrete replica sets
    report = evaluate_availability(placement, k=3, s=2)
    assert report.available >= plan.lower_bound

See README.md for the architecture tour and DESIGN.md for the
paper-to-module map.
"""

__version__ = "1.0.0"

#: Served from :mod:`repro.sim` on first access. The simulator and the
#: cluster model under it cost ~24 ms of import that ``repro run`` and
#: most library use never need.
_SIM_NAMES = frozenset({"LifetimeSimulator", "SimConfig", "SimReport", "simulate"})


def __getattr__(name: str):
    if name in _SIM_NAMES:
        from repro import sim

        return getattr(sim, name)
    if name in __all__:
        # Every other public name is :mod:`repro.core`'s, which loads its
        # own submodules on first access too.
        from repro import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdaptiveComboPlacement",
    "AttackCell",
    "AttackEngine",
    "AttackResult",
    "AvailabilityReport",
    "BranchAndBoundAdversary",
    "ComboPlan",
    "ComboStrategy",
    "DamageKernel",
    "ExhaustiveAdversary",
    "GreedyAdversary",
    "Incidence",
    "LifetimeSimulator",
    "LocalSearchAdversary",
    "Placement",
    "PlacementError",
    "RandomStrategy",
    "SimConfig",
    "SimReport",
    "SimpleStrategy",
    "Subsystem",
    "SystemParams",
    "UnconstrainedRandomStrategy",
    "__version__",
    "attack_grid",
    "audit_placement",
    "batch_attack",
    "best_attack",
    "capacity_gap",
    "certified_availability",
    "evaluate_availability",
    "evaluate_availability_grid",
    "make_kernel",
    "lb_avail_combo",
    "lb_avail_simple",
    "lemma4_upper_bound",
    "majority_threshold",
    "minimal_lambda",
    "packing_profile",
    "pr_avail_rnd",
    "select_combo_subsystems",
    "select_subsystem",
    "simple_capacity",
    "simulate",
    "theorem1_constants",
]
