"""Cluster simulation substrate: cluster state, failures, liveness, workloads.

The execution environment the placements deploy into: an array-backed
:class:`Cluster` (replica rows, per-node loads and up flags, rack
topology, and the warm attack engine fed from its own change record),
failure injectors at three adversity levels (random, rack-correlated,
worst-case), quorum-style liveness rules, and churn workloads. The
lifetime simulator (:mod:`repro.sim`) ties them to measurements.
"""

from repro.cluster.cluster import Cluster, ClusterError
from repro.cluster.failures import (
    CorrelatedInjector,
    RandomInjector,
    WorstCaseInjector,
    fail_specific,
)
from repro.cluster.metrics import LoadStats
from repro.cluster.objects import (
    LivenessRule,
    majority_quorum_rule,
    read_one_rule,
    threshold_rule,
    write_all_rule,
)
from repro.cluster.workload import (
    ChurnEvent,
    ChurnKind,
    churn_trace,
    geometric_object_counts,
)

__all__ = [
    "ChurnEvent",
    "ChurnKind",
    "Cluster",
    "ClusterError",
    "CorrelatedInjector",
    "LivenessRule",
    "LoadStats",
    "RandomInjector",
    "WorstCaseInjector",
    "churn_trace",
    "fail_specific",
    "geometric_object_counts",
    "majority_quorum_rule",
    "read_one_rule",
    "threshold_rule",
    "write_all_rule",
]
