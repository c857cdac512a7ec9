"""Failure injectors: who decides which k nodes die.

Three adversity levels, matching the paper's comparison axes:

* :class:`RandomInjector` — nodes fail uniformly at random (the model of
  the prior work the paper contrasts itself with, e.g. Yu & Gibbons);
* :class:`CorrelatedInjector` — a whole rack (or another correlated group)
  fails together, a common practical failure domain;
* :class:`WorstCaseInjector` — the paper's adversary: picks the k nodes
  that kill the most objects, via the :mod:`repro.core.adversary` engines.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.cluster.cluster import Cluster, ClusterError
from repro.cluster.objects import LivenessRule
from repro.core.batch import AttackCell, AttackEngine


class RandomInjector:
    """Fail ``k`` uniformly random up-nodes."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self.rng = rng or random.Random()

    def select(self, cluster: Cluster, k: int, rule: LivenessRule) -> List[int]:
        up = cluster.up_nodes()
        if k > len(up):
            raise ClusterError(f"cannot fail {k} of {len(up)} up nodes")
        return sorted(self.rng.sample(up, k))

    def inject(self, cluster: Cluster, k: int, rule: LivenessRule) -> List[int]:
        nodes = self.select(cluster, k, rule)
        cluster.fail_nodes(nodes)
        return nodes


class CorrelatedInjector:
    """Fail all nodes of one failure domain (rack), chosen at random."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self.rng = rng or random.Random()

    def select(self, cluster: Cluster, rack: Optional[int] = None) -> List[int]:
        if rack is None:
            rack = self.rng.randrange(cluster.racks)
        nodes = [
            node for node in cluster.rack_nodes(rack) if cluster.is_up(node)
        ]
        if not nodes:
            raise ClusterError(f"rack {rack} has no up nodes")
        return nodes

    def inject(self, cluster: Cluster, rack: Optional[int] = None) -> List[int]:
        nodes = self.select(cluster, rack)
        cluster.fail_nodes(nodes)
        return nodes


class WorstCaseInjector:
    """The paper's adversary: fail the k nodes that disable the most objects.

    Search runs through the warm attack-engine layer. Without a pinned
    ``engine`` each injection snapshots the cluster and builds one
    :class:`~repro.core.batch.AttackEngine` for it. (Each injection is a
    single attack cell — use :func:`repro.core.batch.batch_attack` to
    evaluate whole k-grids in one batched pass that chains incumbents.)

    An *online* adversary — one that re-attacks the same cluster as it
    mutates — can skip the per-injection snapshot and rebuild entirely by
    pinning a delta-aware ``engine``
    (:class:`repro.core.batch.AttackEngine`), typically
    :meth:`Cluster.engine() <repro.cluster.cluster.Cluster.engine>`,
    which the cluster keeps aligned with its population through
    :meth:`~repro.core.batch.AttackEngine.apply_delta`; every injection
    then reuses the warm kernel state. The lifetime simulator
    (:mod:`repro.sim`) is the canonical such caller. The last search
    outcome is kept on :attr:`last_result` so drivers can record damage
    without re-deriving it from cluster state.
    """

    def __init__(
        self,
        effort: str = "auto",
        rng: Optional[random.Random] = None,
        seed: int = 0,
        engine: Optional[AttackEngine] = None,
    ) -> None:
        self.effort = effort
        self.rng = rng
        self.seed = seed
        self.engine = engine
        self.last_result = None

    def select(
        self,
        cluster: Cluster,
        k: int,
        rule: LivenessRule,
        warm_start: Optional[Sequence[int]] = None,
    ) -> List[int]:
        engine = self.engine
        if engine is None:
            engine = AttackEngine(cluster.placement_snapshot())
        attack = engine.attack(
            AttackCell(k, rule.s, self.effort),
            seed=self.seed,
            rng=self.rng,
            warm_start=warm_start,
        )
        self.last_result = attack
        return sorted(attack.nodes)

    def inject(
        self,
        cluster: Cluster,
        k: int,
        rule: LivenessRule,
        warm_start: Optional[Sequence[int]] = None,
    ) -> List[int]:
        nodes = self.select(cluster, k, rule, warm_start=warm_start)
        cluster.fail_nodes(nodes)
        return nodes


def fail_specific(cluster: Cluster, nodes: Sequence[int]) -> List[int]:
    """Fail an explicit node list (scenario scripting helper)."""
    node_list = sorted(nodes)
    cluster.fail_nodes(node_list)
    return node_list
