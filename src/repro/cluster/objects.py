"""Stored objects and liveness rules.

The paper's model: an object fails once ``s`` of its ``r`` replicas are on
failed nodes, with ``s`` decoupled from ``r`` to capture different
replication protocols (Sec. I). The presets here name the three standard
protocol shapes the paper motivates:

* read-one / primary-backup — any surviving replica keeps the object alive
  (``s = r``);
* majority quorum — the object needs a live majority (``s = ceil(r/2)``);
* write-all — a single replica failure already blocks the object (``s = 1``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import (
    majority_threshold,
    read_one_threshold,
    write_all_threshold,
)


@dataclass(frozen=True)
class LivenessRule:
    """Threshold semantics: the object dies at ``s`` replica failures."""

    name: str
    s: int

    def object_alive(self, replicas_failed: int) -> bool:
        return replicas_failed < self.s


def read_one_rule(r: int) -> LivenessRule:
    """Alive while at least one replica survives (primary-backup[s])."""
    return LivenessRule(name="read-one", s=read_one_threshold(r))


def majority_quorum_rule(r: int) -> LivenessRule:
    """Alive while a majority of replicas survives (quorum replication)."""
    return LivenessRule(name="majority-quorum", s=majority_threshold(r))


def write_all_rule() -> LivenessRule:
    """Alive only while all replicas survive (write-all / s = 1)."""
    return LivenessRule(name="write-all", s=write_all_threshold())


def threshold_rule(s: int) -> LivenessRule:
    """An explicit fatality threshold (the paper's raw ``s``)."""
    if s < 1:
        raise ValueError(f"threshold must be >= 1, got {s}")
    return LivenessRule(name=f"threshold-{s}", s=s)
