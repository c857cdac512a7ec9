"""Measurement: load statistics over a cluster's nodes."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class LoadStats:
    """Replica-load distribution across nodes."""

    minimum: int
    maximum: int
    mean: float
    stdev: float

    @staticmethod
    def from_loads(loads: Sequence[int]) -> "LoadStats":
        if not loads:
            raise ValueError("no loads to summarize")
        return LoadStats(
            minimum=min(loads),
            maximum=max(loads),
            mean=statistics.fmean(loads),
            stdev=statistics.pstdev(loads) if len(loads) > 1 else 0.0,
        )

    @property
    def imbalance(self) -> float:
        """max/mean — 1.0 is perfectly balanced."""
        return self.maximum / self.mean if self.mean else float("inf")
