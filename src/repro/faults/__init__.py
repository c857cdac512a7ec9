"""Deterministic, seeded fault injection for chaos-hardening the stack.

The package has two halves:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a pure-data description
  of *which* faults fire *where* (sha256-identified, like
  :class:`~repro.exp.spec.ExperimentSpec`), parsed from ``REPRO_CHAOS``;
* :mod:`repro.faults.injector` — the runtime: consumers call
  :func:`inject` at named sites; with no active plan this is a cheap
  no-op, with one it deterministically crashes, hangs, tears a write,
  or raises an :class:`InjectedFault`.

Sites threaded through the stack: ``store.commit`` (run-store appends),
``runner.shard_start`` (shard workers) and ``native.compile`` (the C
accelerator build). One layer retries: the shard supervisor (and its
serial replay) in :mod:`repro.exp.runner` re-runs a shard whose attempt
failed. The other consumers do what they would do on a real failure: a
torn or failed store append ends the run and ``--resume`` heals it from
the committed prefix, and after a failed compile ``auto`` resolves to
python. An injected fault therefore delays a run or ends it, but never
corrupts it.
"""

from repro.faults.injector import (
    InjectedFault,
    TornWrite,
    active_plan,
    clear,
    configure,
    inject,
    reset_counters,
)
from repro.faults.plan import (
    ABSORBED_SITES,
    FAULT_KINDS,
    SITES,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    prob_plan,
)

__all__ = [
    "ABSORBED_SITES",
    "FAULT_KINDS",
    "SITES",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "InjectedFault",
    "TornWrite",
    "active_plan",
    "clear",
    "configure",
    "inject",
    "prob_plan",
    "reset_counters",
]
