"""Re-replication policies: when lost redundancy is rebuilt elsewhere.

A node failure leaves every object it hosted one replica short until the
node repairs. Whether (and when) the system rebuilds those replicas on
healthy nodes is a policy choice with a real trade-off:

* :class:`EagerRepair` — re-replicate immediately (plus an optional
  detection delay). Redundancy recovers fastest, but every transient
  failure moves data, and moving replicas *abandons the packing
  guarantee*: the mutated placement is no longer the one Lemma 3
  certified, so the simulator marks subsequent strike records
  uncertified.
* :class:`LazyRepair` — wait out a grace period; if the node repaired in
  the meantime, nothing moves. The common production compromise (it
  absorbs reboots and maintenance without data motion).
* :class:`NoRepair` — never re-replicate; redundancy returns only when
  nodes do. Keeps the Lemma-3 certificate valid for the whole run, which
  is why it is the default for bound-tracking experiments.

The policy decides *timing* only, so policies stay trivially composable.
The mechanics live elsewhere: the simulator moves each lost replica with
:meth:`Cluster.move_replica <repro.sim.cluster.Cluster.move_replica>`
to the node :meth:`Cluster.pick_repair_target
<repro.sim.cluster.Cluster.pick_repair_target>` names — the least-loaded
up node not already hosting the object, ties to the lowest id, read off
the cluster's load buckets in O(r) — so repair consumes no randomness,
and the cluster forwards each move to the warm attack engine as an
in-place replica move.
"""

from __future__ import annotations

from typing import Optional


class RepairPolicy:
    """Decides when a failed node's lost replicas are rebuilt."""

    name = "abstract"

    def rereplicate_at(self, now: float, node: int) -> Optional[float]:
        """Time to rebuild ``node``'s replicas, or None for never.

        Called once when ``node`` fails. At the returned time the
        simulator re-checks: a node that already repaired keeps its
        replicas (relevant under :class:`LazyRepair`).
        """
        raise NotImplementedError


class EagerRepair(RepairPolicy):
    """Rebuild as soon as the failure is detected."""

    name = "eager"

    def __init__(self, detection_delay: float = 0.0) -> None:
        if detection_delay < 0:
            raise ValueError(
                f"detection delay must be >= 0, got {detection_delay}"
            )
        self.detection_delay = detection_delay

    def rereplicate_at(self, now: float, node: int) -> Optional[float]:
        return now + self.detection_delay


class LazyRepair(RepairPolicy):
    """Rebuild only if the node is still down after a grace period."""

    name = "lazy"

    def __init__(self, grace: float) -> None:
        if grace < 0:
            raise ValueError(f"grace period must be >= 0, got {grace}")
        self.grace = grace

    def rereplicate_at(self, now: float, node: int) -> Optional[float]:
        return now + self.grace


class NoRepair(RepairPolicy):
    """Never move replicas; wait for nodes to come back."""

    name = "none"

    def rereplicate_at(self, now: float, node: int) -> Optional[float]:
        return None


def make_repair_policy(name: str, grace: float = 4.0) -> RepairPolicy:
    """Policy factory for CLI/config strings: eager, lazy, or none."""
    if name == "eager":
        return EagerRepair()
    if name == "lazy":
        return LazyRepair(grace)
    if name == "none":
        return NoRepair()
    raise ValueError(f"unknown repair policy {name!r}; use eager, lazy or none")

