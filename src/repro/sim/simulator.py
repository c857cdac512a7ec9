"""The cluster lifetime simulator: churn, failures, repair, online attacks.

The paper evaluates placements as static snapshots; this driver evaluates
them *over time* (the Sec. IV-D future-work regime): a seeded
discrete-event loop advances one :class:`~repro.sim.cluster.Cluster`
through interleaved

* **object churn** — a :func:`~repro.sim.processes.churn_trace` feeds
  arrivals/departures, placed and released by an
  :class:`~repro.core.adaptive.AdaptiveComboPlacement` (so the Lemma-3
  certificate tracks the live population);
* **node failures** — memoryless random crashes and correlated
  whole-rack crashes, each repairing after a fixed downtime;
* **re-replication** — an eager/lazy/none :mod:`repro.sim.repair` policy
  rebuilds lost redundancy on healthy nodes (and, once it moves a
  replica, voids the packing certificate — recorded honestly);
* **a recurring online adversary** — a worst-case
  :meth:`AttackEngine.attack <repro.core.batch.AttackEngine.attack>`
  strike every period, warm-started from the previous strike.

The cluster is the one copy of the simulated state, and every mutation
(arrival, departure, failure, repair, re-replication) goes straight to
it. Engine modes differ only in how a strike reads that state:
``"delta"`` (default) attacks through :meth:`Cluster.engine
<repro.sim.cluster.Cluster.engine>`, the warm
:class:`~repro.core.batch.AttackEngine` the cluster keeps aligned with
its population — churn between strikes costs one O(changed replicas)
``apply_delta`` — while ``"rebuild"`` is the reference oracle (snapshot +
cold engine per strike). Both modes draw identical
randomness and produce bit-identical strike records.

Everything is a pure function of :class:`SimConfig` (all randomness
derives from ``seed`` via labelled streams), so runs replay bit-for-bit.
The loop has no fault-injection site and retries nothing: an exception
in a strike propagates to the caller.
"""

from __future__ import annotations

import statistics
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import obs
from repro.core.adaptive import AdaptiveComboPlacement
from repro.core.batch import AttackCell, AttackEngine
from repro.core.kernels import resolve_gain_backing
from repro.sim.cluster import Cluster
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.processes import (
    AdversaryProcess,
    ChurnProcess,
    MeasureProcess,
    Process,
    RackFailureProcess,
    RandomFailureProcess,
    churn_trace,
)
from repro.sim.repair import RepairPolicy, make_repair_policy
from repro.sim.report import SimReport, SimSample, StrikeRecord
from repro.util.rng import derive_rng

_ENGINE_MODES = ("delta", "rebuild")


@dataclass(frozen=True)
class SimConfig:
    """One lifetime experiment, fully specified.

    Rates are events per unit time (0 disables the process); periods are
    time units between firings. ``events`` caps the number of handled
    events (every queue pop counts: churn, failures, repairs, strikes,
    measures), which is the budget the events/sec throughput metric is
    measured against.
    """

    n: int = 31
    r: int = 3
    s: int = 2
    k: int = 3
    events: int = 2000
    seed: int = 0
    racks: int = 1
    arrival_probability: float = 0.6
    warmup_arrivals: int = 64
    churn_interval: float = 1.0
    failure_rate: float = 0.0
    rack_failure_rate: float = 0.0
    repair_time: float = 8.0
    strike_period: float = 16.0
    measure_period: float = 8.0
    effort: str = "fast"
    engine_mode: str = "delta"
    repair: str = "none"
    repair_grace: float = 4.0
    replan_interval: int = 64
    expected_objects: int = 64

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2 nodes, got {self.n}")
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n={self.n}, got k={self.k}")
        if not 1 <= self.s <= self.r:
            raise ValueError(f"need 1 <= s <= r={self.r}, got s={self.s}")
        if self.events < 1:
            raise ValueError(f"need an event budget >= 1, got {self.events}")
        if self.racks < 1:
            raise ValueError(f"need racks >= 1, got {self.racks}")
        if not 0.0 <= self.arrival_probability <= 1.0:
            raise ValueError(
                "need 0 <= arrival probability <= 1, "
                f"got {self.arrival_probability}"
            )
        if self.warmup_arrivals < 0:
            raise ValueError(
                f"need warmup arrivals >= 0, got {self.warmup_arrivals}"
            )
        for name, value in (
            ("failure rate", self.failure_rate),
            ("rack failure rate", self.rack_failure_rate),
            ("strike period", self.strike_period),
            ("measure period", self.measure_period),
        ):
            # 0 turns the process off; a negative (or NaN) value would
            # silently do the same, so it is rejected instead.
            if not value >= 0:
                raise ValueError(f"need {name} >= 0, got {value}")
        if self.engine_mode not in _ENGINE_MODES:
            raise ValueError(
                f"unknown engine mode {self.engine_mode!r}; "
                f"use one of {_ENGINE_MODES}"
            )
        if self.effort not in ("fast", "auto", "exact"):
            raise ValueError(
                f"unknown effort {self.effort!r}; use fast, auto or exact"
            )
        if self.repair_time <= 0:
            raise ValueError(f"repair time must be > 0, got {self.repair_time}")


class LifetimeSimulator:
    """Drives one :class:`SimConfig` to a :class:`SimReport`."""

    def __init__(self, config: SimConfig) -> None:
        config.validate()
        # Resolved here, not at the first strike, so a bad
        # REPRO_GAIN_BACKING is rejected with the rest of the config.
        resolve_gain_backing()
        self.config = config
        self.cluster = Cluster(config.n, racks=config.racks)
        self.adaptive = AdaptiveComboPlacement(
            config.n, config.r, config.s, config.k,
            expected_objects=config.expected_objects,
            replan_interval=config.replan_interval,
        )
        self.repair_policy: RepairPolicy = make_repair_policy(
            config.repair, grace=config.repair_grace
        )
        self._trace = churn_trace(
            steps=config.events,
            arrival_probability=config.arrival_probability,
            warmup_arrivals=config.warmup_arrivals,
            rng=derive_rng(config.seed, "sim", "churn-trace"),
        )
        self._victims = derive_rng(config.seed, "sim", "victims")
        self._live: List[int] = []
        self._warm: Optional[tuple] = None
        self._failed_at: Dict[int, float] = {}
        self._certified = True
        self._queue = EventQueue()
        self._handled = 0
        self._processes: Dict[EventKind, Process] = {}
        self._report = SimReport(
            n=config.n, r=config.r, s=config.s, k=config.k,
            seed=config.seed, engine_mode=config.engine_mode,
        )
        self._install_processes()

    def _install_processes(self) -> None:
        config = self.config
        processes: List[Process] = [ChurnProcess(config.churn_interval)]
        if config.failure_rate > 0:
            processes.append(RandomFailureProcess(config.failure_rate))
        if config.rack_failure_rate > 0:
            processes.append(RackFailureProcess(config.rack_failure_rate))
        if config.strike_period > 0:
            processes.append(AdversaryProcess(config.strike_period, config.k))
        if config.measure_period > 0:
            processes.append(MeasureProcess(config.measure_period))
        for process in processes:
            process.bind(config.seed)
            self._processes[process.kind] = process
            # Churn starts at t=0 so warmup arrivals populate the cluster
            # before the first failure/strike/measure can fire.
            first = 0.0 if isinstance(process, ChurnProcess) else process.delay()
            self._queue.push(first, process.event())

    # -- the event loop ------------------------------------------------------

    def run(self) -> SimReport:
        start = _time.perf_counter()
        handled_before = self._handled
        while self._queue and self._handled < self.config.events:
            now, event = self._queue.pop()
            self._handled += 1
            counted_kind = self._dispatch(now, event)
            self._report.count_event(counted_kind.value)
        if self._handled > handled_before:
            obs.count("sim.events", self._handled - handled_before)
        self._report.events = self._handled
        self._report.end_time = self._queue.now
        self._report.wall_seconds = _time.perf_counter() - start
        return self._report

    def _dispatch(self, now: float, event: Event) -> EventKind:
        kind = event.kind
        if kind in (EventKind.ARRIVAL, EventKind.DEPARTURE):
            return self._handle_churn(now)
        if kind == EventKind.NODE_FAIL:
            self._handle_node_fail(now)
        elif kind == EventKind.RACK_FAIL:
            self._handle_rack_fail(now)
        elif kind == EventKind.STRIKE:
            self._handle_strike(now)
        elif kind == EventKind.NODE_REPAIR:
            self.cluster.recover(event.node)
        elif kind == EventKind.REREPLICATE:
            self._handle_rereplicate(event.node, event.epoch)
        elif kind == EventKind.MEASURE:
            self._handle_measure(now)
            self._reschedule(EventKind.MEASURE, now)
        return kind

    def _reschedule(self, kind: EventKind, now: float) -> None:
        process = self._processes.get(kind)
        if process is not None:
            self._queue.push(now + process.delay(), process.event())

    # -- churn ---------------------------------------------------------------

    def _handle_churn(self, now: float) -> EventKind:
        step = next(self._trace, None)
        if step is None:
            return EventKind.ARRIVAL  # trace exhausted: inert tick
        self._reschedule(EventKind.ARRIVAL, now)
        if step == EventKind.ARRIVAL:
            obj_id = self.adaptive.add_object()
            nodes = self.adaptive.replica_nodes(obj_id)
            self.cluster.add_object(obj_id, nodes)
            self._live.append(obj_id)
            # The adaptive placement is failure-oblivious (blocks come
            # from the packing, not from cluster health), so an arrival
            # can land replicas on a failed node; give the repair policy
            # a chance to rebuild them like any other lost redundancy.
            for node in nodes:
                if not self.cluster.is_up(node):
                    when = self.repair_policy.rereplicate_at(now, node)
                    if when is not None:
                        self._queue.push(
                            when,
                            Event(
                                kind=EventKind.REREPLICATE,
                                node=node,
                                epoch=self._failed_at.get(node),
                            ),
                        )
            return EventKind.ARRIVAL
        if self._live:
            victim = self._live.pop(self._victims.randrange(len(self._live)))
            self.adaptive.remove_object(victim)
            self.cluster.remove_object(victim)
        return EventKind.DEPARTURE

    # -- failures and repair -------------------------------------------------

    def _fail_and_schedule_repair(self, now: float, node: int) -> None:
        self.cluster.fail_nodes([node])
        self._failed_at[node] = now
        self._queue.push(
            now + self.config.repair_time,
            Event(kind=EventKind.NODE_REPAIR, node=node),
        )
        when = self.repair_policy.rereplicate_at(now, node)
        if when is not None:
            self._queue.push(
                when, Event(kind=EventKind.REREPLICATE, node=node, epoch=now)
            )

    def _handle_node_fail(self, now: float) -> None:
        process = self._processes[EventKind.NODE_FAIL]
        self._reschedule(EventKind.NODE_FAIL, now)
        up = self.cluster.up_nodes()
        if not up:
            return
        self._fail_and_schedule_repair(now, process.rng.choice(up))

    def _handle_rack_fail(self, now: float) -> None:
        process = self._processes[EventKind.RACK_FAIL]
        self._reschedule(EventKind.RACK_FAIL, now)
        rack = process.rng.randrange(self.cluster.racks)
        for node in self.cluster.rack_nodes(rack):
            if self.cluster.is_up(node):
                self._fail_and_schedule_repair(now, node)

    def _handle_rereplicate(self, node: int, epoch: Optional[float]) -> None:
        cluster = self.cluster
        if cluster.is_up(node) or self._failed_at.get(node) != epoch:
            # Repaired within the grace period — or this check belongs to
            # an older failure of a node that has since failed again (the
            # newer failure carries its own grace clock).
            return
        # The cluster's load buckets see every move below, so each target
        # choice is O(r) and accounts for the moves before it.
        for obj_id in sorted(cluster.hosted(node)):
            target = cluster.pick_repair_target(cluster.objects[obj_id])
            if target is None:
                continue  # no healthy host available; stay degraded
            cluster.move_replica(obj_id, node, target)
            # The placement is no longer the packing the DP certified.
            self._certified = False

    # -- the adversary -------------------------------------------------------

    def _handle_strike(self, now: float) -> None:
        process = self._processes[EventKind.STRIKE]
        self._reschedule(EventKind.STRIKE, now)
        if not self._live:
            return
        config = self.config
        if config.engine_mode == "delta":
            engine = self.cluster.engine()
        else:  # the reference oracle: snapshot + cold engine per strike
            engine = AttackEngine(self.cluster.placement_snapshot())
        with obs.span("sim.strike", k=process.k):
            attack = engine.attack(
                AttackCell(process.k, config.s, config.effort),
                seed=config.seed,
                warm_start=self._warm,
            )
        obs.count("sim.strikes")
        obs.count(f"sim.strikes.{config.engine_mode}")
        nodes = sorted(attack.nodes)
        self._warm = attack.nodes
        for node in nodes:
            if self.cluster.is_up(node):
                self._fail_and_schedule_repair(now, node)
        self._report.record_strike(
            StrikeRecord(
                time=now,
                nodes=tuple(nodes),
                damage=attack.damage,
                live_objects=len(self._live),
                lower_bound=self.adaptive.lower_bound(process.k),
                certified=self._certified,
            )
        )

    # -- measurement ---------------------------------------------------------

    def _handle_measure(self, now: float) -> None:
        loads = self.cluster.loads()
        if self.cluster.objects:
            imbalance = max(loads) / statistics.fmean(loads)
        else:
            imbalance = 1.0
        failed = self.cluster.failed_nodes()
        self._report.record_sample(
            SimSample(
                time=now,
                events=self._handled,
                live_objects=len(self._live),
                failed_nodes=len(failed),
                availability=self.cluster.availability(self.config.s),
                load_imbalance=imbalance,
                repair_backlog=sum(loads[node] for node in failed),
            )
        )


def simulate(**overrides) -> SimReport:
    """Run one lifetime experiment; keyword args override :class:`SimConfig`."""
    return LifetimeSimulator(SimConfig(**overrides)).run()
