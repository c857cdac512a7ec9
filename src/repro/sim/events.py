"""Discrete-event substrate: typed events on a deterministic time queue.

The simulator core is the textbook discrete-event loop — pop the earliest
event, advance the clock, handle, schedule follow-ups — so this module
keeps the substrate deliberately tiny: an :class:`Event` value type, the
:class:`EventKind` vocabulary shared by processes/handlers/reports, and a
min-heap :class:`EventQueue` whose ordering is *fully* deterministic:
ties on time break by insertion order (a monotone sequence number), never
by event contents, so two runs that push the same events in the same
order replay bit-for-bit.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple


class EventKind(Enum):
    """Everything that can happen to the cluster at an instant."""

    ARRIVAL = "arrival"              # a new object is placed
    DEPARTURE = "departure"          # a live object is deleted
    NODE_FAIL = "node-fail"          # one node crashes (random process)
    RACK_FAIL = "rack-fail"          # a whole rack crashes (correlated)
    STRIKE = "strike"                # the online adversary fails k nodes
    NODE_REPAIR = "node-repair"      # a failed node comes back up
    REREPLICATE = "re-replicate"     # lost redundancy is rebuilt elsewhere
    MEASURE = "measure"              # sample the time-series metrics


class Event(NamedTuple):
    """One scheduled occurrence; payload fields are kind-specific.

    ``node`` targets NODE_REPAIR / REREPLICATE; ``epoch`` stamps a
    REREPLICATE event with the failure time that scheduled it, so a
    grace-period check fired by an *old* failure is recognized as stale
    when the node has since recovered and failed again. Churn events
    carry no payload — the workload trace decides arrival vs departure
    and the victim draw happens at handling time, keeping queue contents
    placement-free (as the trace itself is, see
    :func:`~repro.sim.processes.churn_trace`).

    A named tuple rather than a frozen dataclass: the simulator builds
    one per scheduled event, and a tuple is built without a per-field
    ``object.__setattr__``. Queue entries are ``(time, seq, event)`` with
    a unique ``seq``, so events themselves are never compared.
    """

    kind: EventKind
    node: Optional[int] = None
    epoch: Optional[float] = None


class SimClockError(ValueError):
    """Raised on invalid event times (negative, NaN, or past-dated)."""


class EventQueue:
    """A deterministic time-ordered queue of :class:`Event` entries."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """The time of the most recently popped event (0.0 initially)."""
        return self._now

    def push(self, time: float, event: Event) -> None:
        """Schedule ``event`` at ``time`` (>= the current clock)."""
        if math.isnan(time) or math.isinf(time):
            raise SimClockError(f"event time must be finite, got {time}")
        if time < self._now:
            raise SimClockError(
                f"cannot schedule at {time}: clock is already at {self._now}"
            )
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1

    def pop(self) -> Tuple[float, Event]:
        """The earliest (time, event); advances the clock."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        time, _seq, event = heapq.heappop(self._heap)
        self._now = time
        return time, event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __repr__(self) -> str:
        return f"EventQueue(pending={len(self._heap)}, now={self._now:g})"
