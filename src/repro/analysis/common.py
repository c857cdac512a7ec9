"""Shared experiment configuration and environment knobs.

Every figure's spec builder reads its effort/repetition knobs from here so
that the whole ``repro run`` catalog takes seconds by default while
``REPRO_EFFORT=exact REPRO_REPS=20`` reproduces the paper's full procedure.
An empty value means the knob is unset.

Two knobs live elsewhere and never change a result: ``REPRO_WORKERS``
(shards of ``repro run``) is read by the experiment runner, and
``REPRO_GAIN_BACKING`` (the damage kernel's backing) by the attack engine.
"""

from __future__ import annotations

import os
from typing import List

from repro.exp.spec import env_int

#: The paper's object-count ladder (Figs. 9-10 start at 600; Fig. 7 at 150).
PAPER_B_LADDER: List[int] = [600, 1200, 2400, 4800, 9600, 19200, 38400]
FIG7_B_LADDER: List[int] = [150, 300, 600, 1200, 2400, 4800, 9600]

#: The paper's cluster sizes (chosen so n_x ~ n exists with mu = 1).
PAPER_N_VALUES: List[int] = [31, 71, 257]


def adversary_effort() -> str:
    """Adversary effort for simulation figures: fast (default), auto, exact."""
    effort = os.environ.get("REPRO_EFFORT") or "fast"
    if effort not in ("fast", "auto", "exact"):
        raise ValueError(f"REPRO_EFFORT must be fast, auto or exact, got {effort!r}")
    return effort


def monte_carlo_reps(default: int = 5) -> int:
    """Monte-Carlo repetitions for Random-placement figures (paper used 20)."""
    return env_int("REPRO_REPS", default, 1)


def object_scale_cap(default: int = 9600) -> int:
    """Cap on b for simulation-heavy figures (analysis figures ignore this)."""
    return env_int("REPRO_B_MAX", default, 1)


def percent(numerator: float, denominator: float) -> float:
    """A guarded percentage (0 denominator yields nan, matching blank cells)."""
    if denominator == 0:
        return float("nan")
    return 100.0 * numerator / denominator
