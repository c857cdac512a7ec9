"""Availability evaluation: Definition 1 tied to the adversary engines.

Single-cell evaluation routes through the batched attack engine
(:mod:`repro.core.batch`), which builds one engine per call. Whole grids
call :func:`~repro.core.batch.batch_attack` directly, so one engine
serves every cell of the grid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.adversary import AttackResult
from repro.core.batch import AttackCell, batch_attack
from repro.core.placement import Placement


@dataclass(frozen=True)
class AvailabilityReport:
    """``Avail(pi)`` for one placement under worst-case ``k`` failures."""

    b: int
    k: int
    s: int
    available: int  # surviving objects (b - damage)
    attack: AttackResult

    @property
    def failed(self) -> int:
        return self.b - self.available

    @property
    def fraction_available(self) -> float:
        return self.available / self.b

    @property
    def exact(self) -> bool:
        """True iff `available` is exactly Avail(pi), not just an upper bound."""
        return self.attack.exact


def evaluate_availability(
    placement: Placement,
    k: int,
    s: int,
    effort: str = "auto",
    rng: Optional[random.Random] = None,
) -> AvailabilityReport:
    """Compute (or upper-bound) ``Avail(pi)`` = b - worst-case damage.

    With a heuristic adversary (``exact=False`` on the attack) the reported
    availability is an *upper* bound on the true worst case: the adversary
    may have missed a better attack, never overstated one. With
    ``rng=None`` the search randomness derives from the cell (see
    :mod:`repro.core.batch`), so repeats return the same result.
    """
    [attack] = batch_attack(placement, [AttackCell(k, s, effort)], rng=rng)
    return AvailabilityReport(
        b=placement.b,
        k=k,
        s=s,
        available=placement.b - attack.damage,
        attack=attack,
    )
