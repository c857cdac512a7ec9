"""The paper's contribution: placement strategies, bounds, adversary, analysis.

Public API of the reproduction: Simple(x, λ) and Combo placements built on
t-packings (Sec. III), the Random baseline (Sec. IV), availability bounds
(Lemmas 1–3, Theorem 1), the worst-case adversary ladder (Definition 1),
and the analytical treatment of Random under adaptive failures (Theorem 2,
Lemma 4).
"""

from repro.core.adaptive import AdaptiveComboPlacement
from repro.core.artifact import (
    ArtifactError,
    load_npz,
    load_placement,
    save_npz,
    save_placement,
)
from repro.core.adversary import (
    AttackResult,
    BranchAndBoundAdversary,
    ExhaustiveAdversary,
    GreedyAdversary,
    LocalSearchAdversary,
    best_attack,
    damage,
)
from repro.core.availability import (
    AvailabilityReport,
    evaluate_availability,
    evaluate_availability_grid,
    survivors_under,
)
from repro.core.batch import (
    AttackCell,
    AttackEngine,
    attack_grid,
    batch_attack,
    engine_for,
)
from repro.core.bounds import (
    CompetitiveConstants,
    lb_avail_combo,
    lb_avail_simple,
    minimal_lambda,
    simple_capacity,
    theorem1_constants,
)
from repro.core.combo import ComboPlan, ComboStrategy
from repro.core.inspect import (
    PackingProfile,
    PlacementAudit,
    audit_placement,
    certified_availability,
    expected_random_multiplicity,
    packing_profile,
)
from repro.core.params import (
    SystemParams,
    majority_threshold,
    read_one_threshold,
    write_all_threshold,
)
from repro.core.kernels import (
    DamageKernel,
    DeltaIncidence,
    Incidence,
    make_kernel,
)
from repro.core.placement import Placement, PlacementError
from repro.core.random_placement import RandomStrategy, UnconstrainedRandomStrategy
from repro.core.rand_analysis import (
    alpha,
    failure_probability,
    lemma4_upper_bound,
    log_vulnerability,
    max_vulnerable_objects,
    pr_avail_fraction,
    pr_avail_rnd,
)
from repro.core.simple import SimpleStrategy
from repro.core.subsystems import (
    Chunk,
    Subsystem,
    best_chunk_decomposition,
    capacity_gap,
    select_combo_subsystems,
    select_subsystem,
)

__all__ = [
    "AdaptiveComboPlacement",
    "ArtifactError",
    "AttackCell",
    "AttackEngine",
    "AttackResult",
    "AvailabilityReport",
    "BranchAndBoundAdversary",
    "Chunk",
    "ComboPlan",
    "ComboStrategy",
    "CompetitiveConstants",
    "DamageKernel",
    "DeltaIncidence",
    "ExhaustiveAdversary",
    "GreedyAdversary",
    "Incidence",
    "LocalSearchAdversary",
    "PackingProfile",
    "Placement",
    "PlacementAudit",
    "PlacementError",
    "RandomStrategy",
    "SimpleStrategy",
    "Subsystem",
    "SystemParams",
    "UnconstrainedRandomStrategy",
    "attack_grid",
    "batch_attack",
    "alpha",
    "audit_placement",
    "best_attack",
    "best_chunk_decomposition",
    "capacity_gap",
    "certified_availability",
    "damage",
    "engine_for",
    "load_npz",
    "load_placement",
    "save_npz",
    "save_placement",
    "evaluate_availability",
    "evaluate_availability_grid",
    "expected_random_multiplicity",
    "failure_probability",
    "lb_avail_combo",
    "lb_avail_simple",
    "lemma4_upper_bound",
    "log_vulnerability",
    "majority_threshold",
    "make_kernel",
    "max_vulnerable_objects",
    "minimal_lambda",
    "packing_profile",
    "pr_avail_fraction",
    "pr_avail_rnd",
    "read_one_threshold",
    "select_combo_subsystems",
    "select_subsystem",
    "simple_capacity",
    "survivors_under",
    "theorem1_constants",
    "write_all_threshold",
]
