"""Combinatorial design substrate: the building blocks of Simple placements.

This subpackage implements, from scratch, every design-theoretic object the
paper's placement strategies consume: finite fields, affine/projective line
designs, Steiner triple and quadruple systems, Hermitian unitals, subline
(inversive-plane) designs, the small Witt design, exact-cover search for
sporadic systems, packing assembly (copies + chunking), and an existence
catalog with explicit provenance tiers.
"""

from repro.designs.affine import affine_geometry_design
from repro.designs.blocks import (
    Block,
    BlockDesign,
    DesignError,
    divisibility_conditions_hold,
)
from repro.designs.catalog import (
    Existence,
    build,
    existence,
    largest_order,
    min_lambda,
    small_witt_design,
    steiner_orders,
)
from repro.designs.exact_cover import ExactCover, SearchBudgetExceeded
from repro.designs.gf import GF, gf
from repro.designs.group_orbit import (
    orbit_of_block,
    pgammal2_generators,
    pgl2_generators,
    psl2_generators,
    search_orbit_steiner,
)
from repro.designs.packing import (
    chunked_packing_blocks,
    sampled_distinct_subsets,
)
from repro.designs.projective import (
    projective_geometry_design,
    projective_space_size,
)
from repro.designs.quadruple import (
    boolean_sqs,
    double_sqs,
    sqs_constructible,
    sqs_exists,
    steiner_quadruple_system,
)
from repro.designs.resolvable import (
    one_factorization,
    pairs_design,
    partition_design,
)
from repro.designs.search import search_steiner_system
from repro.designs.steiner_triple import steiner_triple_system, sts_exists
from repro.designs.subline import subline_design
from repro.designs.transforms import (
    all_subsets_blocks,
    derived_design,
    trivial_design_prefix,
)
from repro.designs.unital import hermitian_unital

__all__ = [
    "GF",
    "Block",
    "BlockDesign",
    "DesignError",
    "ExactCover",
    "Existence",
    "SearchBudgetExceeded",
    "affine_geometry_design",
    "all_subsets_blocks",
    "boolean_sqs",
    "build",
    "chunked_packing_blocks",
    "derived_design",
    "divisibility_conditions_hold",
    "double_sqs",
    "existence",
    "gf",
    "hermitian_unital",
    "largest_order",
    "min_lambda",
    "one_factorization",
    "orbit_of_block",
    "pairs_design",
    "partition_design",
    "pgammal2_generators",
    "pgl2_generators",
    "projective_geometry_design",
    "projective_space_size",
    "psl2_generators",
    "sampled_distinct_subsets",
    "search_orbit_steiner",
    "search_steiner_system",
    "small_witt_design",
    "sqs_constructible",
    "sqs_exists",
    "steiner_orders",
    "steiner_quadruple_system",
    "steiner_triple_system",
    "sts_exists",
    "subline_design",
    "trivial_design_prefix",
]
