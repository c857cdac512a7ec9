"""Shared utilities: exact combinatorics, integer math, RNG, table rendering.

These modules deliberately avoid third-party dependencies so that the core
library runs on a bare Python installation; ``numpy``/``scipy`` are used only
as optional accelerators elsewhere.
"""

from repro.util.combinatorics import (
    binom,
    ceil_div,
    lcm_many,
)
from repro.util.intmath import (
    Rational,
    log_binom,
    log_binom_tail,
)
from repro.util.rng import derive_rng, spawn_seeds
from repro.util.tables import TextTable, format_grid

__all__ = [
    "Rational",
    "TextTable",
    "binom",
    "ceil_div",
    "derive_rng",
    "format_grid",
    "lcm_many",
    "log_binom",
    "log_binom_tail",
    "spawn_seeds",
]
