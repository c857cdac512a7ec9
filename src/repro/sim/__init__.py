"""Discrete-event cluster lifetime simulation.

A seeded event loop that advances one cluster through object churn,
random/correlated node failures with repair and re-replication, and a
recurring online worst-case adversary. The
:class:`~repro.sim.cluster.Cluster` holds the only copy of the state;
its warm attack engine (:meth:`~repro.sim.cluster.Cluster.engine`)
absorbs the churn between strikes as one
:meth:`~repro.core.batch.AttackEngine.apply_delta` in O(changed
replicas) instead of rebuilding per strike.

Entry points: :func:`simulate` (one call), :class:`SimConfig` +
:class:`LifetimeSimulator` (inspectable runs), ``repro simulate`` (CLI).
"""

from repro.sim.events import Event, EventKind, EventQueue, SimClockError
from repro.sim.processes import (
    AdversaryProcess,
    ChurnProcess,
    MeasureProcess,
    Process,
    RackFailureProcess,
    RandomFailureProcess,
)
from repro.sim.repair import (
    EagerRepair,
    LazyRepair,
    NoRepair,
    RepairPolicy,
    make_repair_policy,
)
from repro.sim.report import SimReport, SimSample, StrikeRecord
from repro.sim.simulator import LifetimeSimulator, SimConfig, simulate

__all__ = [
    "AdversaryProcess",
    "ChurnProcess",
    "EagerRepair",
    "Event",
    "EventKind",
    "EventQueue",
    "LazyRepair",
    "LifetimeSimulator",
    "MeasureProcess",
    "NoRepair",
    "Process",
    "RackFailureProcess",
    "RandomFailureProcess",
    "RepairPolicy",
    "SimClockError",
    "SimConfig",
    "SimReport",
    "SimSample",
    "StrikeRecord",
    "make_repair_policy",
    "simulate",
]
