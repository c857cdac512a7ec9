"""The paper's contribution: placement strategies, bounds, adversary, analysis.

Public API of the reproduction: Simple(x, λ) and Combo placements built on
t-packings (Sec. III), the Random baseline (Sec. IV), availability bounds
(Lemmas 1–3, Theorem 1), the worst-case adversary ladder (Definition 1),
and the analytical treatment of Random under adaptive failures (Theorem 2,
Lemma 4).

Every public name loads on first access (PEP 562), from the submodule the
table below names: a ``repro run <fig>`` process imports the strategies,
kernels and bounds it uses and never artifact, inspect or adaptive.
"""

import importlib

#: Public name -> the ``repro.core`` submodule that defines it.
_EXPORTS = {
    "AdaptiveComboPlacement": "adaptive",
    "AttackResult": "adversary",
    "best_attack": "adversary",
    "BranchAndBoundAdversary": "adversary",
    "damage": "adversary",
    "ExhaustiveAdversary": "adversary",
    "GreedyAdversary": "adversary",
    "LocalSearchAdversary": "adversary",
    "ArtifactError": "artifact",
    "load_npz": "artifact",
    "load_placement": "artifact",
    "save_npz": "artifact",
    "save_placement": "artifact",
    "AvailabilityReport": "availability",
    "evaluate_availability": "availability",
    "evaluate_availability_grid": "availability",
    "survivors_under": "availability",
    "attack_grid": "batch",
    "AttackCell": "batch",
    "AttackEngine": "batch",
    "batch_attack": "batch",
    "engine_for": "batch",
    "CompetitiveConstants": "bounds",
    "lb_avail_combo": "bounds",
    "lb_avail_simple": "bounds",
    "minimal_lambda": "bounds",
    "simple_capacity": "bounds",
    "theorem1_constants": "bounds",
    "ComboPlan": "combo",
    "ComboStrategy": "combo",
    "audit_placement": "inspect",
    "certified_availability": "inspect",
    "expected_random_multiplicity": "inspect",
    "packing_profile": "inspect",
    "PackingProfile": "inspect",
    "PlacementAudit": "inspect",
    "DamageKernel": "kernels",
    "DeltaIncidence": "kernels",
    "Incidence": "kernels",
    "make_kernel": "kernels",
    "majority_threshold": "params",
    "read_one_threshold": "params",
    "SystemParams": "params",
    "write_all_threshold": "params",
    "Placement": "placement",
    "PlacementError": "placement",
    "alpha": "rand_analysis",
    "failure_probability": "rand_analysis",
    "lemma4_upper_bound": "rand_analysis",
    "log_vulnerability": "rand_analysis",
    "max_vulnerable_objects": "rand_analysis",
    "pr_avail_fraction": "rand_analysis",
    "pr_avail_rnd": "rand_analysis",
    "RandomStrategy": "random_placement",
    "UnconstrainedRandomStrategy": "random_placement",
    "SimpleStrategy": "simple",
    "best_chunk_decomposition": "subsystems",
    "capacity_gap": "subsystems",
    "Chunk": "subsystems",
    "select_combo_subsystems": "subsystems",
    "select_subsystem": "subsystems",
    "Subsystem": "subsystems",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
