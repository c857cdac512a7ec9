"""Recurring event sources: churn, failures, and the online adversary.

Each process owns one :class:`~repro.util.rng.derive_rng` stream (seeded
from the simulation seed and the process label), decides *when* its next
event fires, and names *what* fires. The simulator holds one live event
per process on the queue at a time and asks the process to reschedule
after handling — the standard self-scheduling discrete-event pattern, so
adding a process never perturbs the randomness of the others.

Failures come at three adversity levels:

* :class:`RandomFailureProcess` — memoryless single-node crashes
  (exponential inter-arrivals), the prior-work failure model;
* :class:`RackFailureProcess` — whole-rack correlated crashes, the
  hierarchical failure-domain regime of arXiv:1701.01539;
* :class:`AdversaryProcess` — the paper's worst-case adversary striking
  on a fixed period, re-planning each strike against the *current*
  population (arXiv:1605.04069's continuous regime). The simulator runs
  the strike search on an :class:`~repro.core.batch.AttackEngine`,
  warm-started from the previous strike.

Object churn is a :class:`ChurnProcess` clock plus a :func:`churn_trace`
that says, slot by slot, whether an object arrives or departs.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.sim.events import Event, EventKind
from repro.util.rng import derive_rng


class Process:
    """One self-rescheduling event source."""

    #: Label namespacing the derived rng stream; unique per process kind.
    label = "process"
    kind = EventKind.MEASURE

    def bind(self, seed: int) -> None:
        """Derive this process's private generator from the sim seed."""
        self.rng: random.Random = derive_rng(seed, "sim", self.label)

    def delay(self) -> float:
        """Time until the next occurrence (called after each handling)."""
        raise NotImplementedError

    def event(self) -> Event:
        """The event to schedule (payload drawn from the private stream)."""
        return Event(kind=self.kind)


class ChurnProcess(Process):
    """Workload churn on a fixed tick; arrival/departure comes from a trace.

    The trace (:func:`churn_trace`) is consumed at *handling* time by the
    simulator, keeping this process a pure clock: one churn slot every
    ``interval`` time units.
    """

    label = "churn"
    kind = EventKind.ARRIVAL  # refined by the trace at handling time

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"churn interval must be > 0, got {interval}")
        self.interval = interval

    def delay(self) -> float:
        return self.interval


def churn_trace(
    steps: int,
    arrival_probability: float,
    warmup_arrivals: int,
    rng: random.Random,
) -> Iterator[EventKind]:
    """A biased birth–death trace: warmup arrivals, then mixed churn.

    Yields ``warmup_arrivals`` ARRIVALs, then ``steps`` slots that are an
    ARRIVAL with ``arrival_probability`` and a DEPARTURE otherwise (the
    driver picks the departing object). ``arrival_probability > 0.5``
    grows the population over time, the "new objects come and go" regime
    of the paper's Sec. IV-D.
    """
    for _ in range(warmup_arrivals):
        yield EventKind.ARRIVAL
    for _ in range(steps):
        if rng.random() < arrival_probability:
            yield EventKind.ARRIVAL
        else:
            yield EventKind.DEPARTURE


class RandomFailureProcess(Process):
    """Uniform single-node crashes with exponential inter-arrivals."""

    label = "random-failures"
    kind = EventKind.NODE_FAIL

    def __init__(self, rate: float) -> None:
        if rate < 0:
            raise ValueError(f"failure rate must be >= 0, got {rate}")
        self.rate = rate

    def delay(self) -> float:
        return self.rng.expovariate(self.rate)


class RackFailureProcess(Process):
    """Correlated whole-rack crashes with exponential inter-arrivals."""

    label = "rack-failures"
    kind = EventKind.RACK_FAIL

    def __init__(self, rate: float) -> None:
        if rate < 0:
            raise ValueError(f"rack failure rate must be >= 0, got {rate}")
        self.rate = rate

    def delay(self) -> float:
        return self.rng.expovariate(self.rate)


class AdversaryProcess(Process):
    """The recurring online adversary: a worst-case strike every period."""

    label = "adversary"
    kind = EventKind.STRIKE

    def __init__(self, period: float, k: int) -> None:
        if period <= 0:
            raise ValueError(f"strike period must be > 0, got {period}")
        if k < 1:
            raise ValueError(f"strike size must be >= 1, got {k}")
        self.period = period
        self.k = k

    def delay(self) -> float:
        return self.period


class MeasureProcess(Process):
    """Periodic metric sampling into the report's time series."""

    label = "measure"
    kind = EventKind.MEASURE

    def __init__(self, period: float) -> None:
        if period <= 0:
            raise ValueError(f"measure period must be > 0, got {period}")
        self.period = period

    def delay(self) -> float:
        return self.period
