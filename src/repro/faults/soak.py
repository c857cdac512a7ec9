"""Chaos soak: run a figure grid to completion under injected faults.

The soak is the end-to-end proof behind the fault framework: build a
:class:`~repro.faults.plan.FaultPlan` that schedules worker crashes,
hangs and errors and torn store writes across a real figure grid, then
drive ``repro run --resume`` in a subprocess restart loop until the
store completes.  Because shards are pure functions of the spec and the
store commits in expansion order, the final ``cells.jsonl`` must be
**byte-identical** to a fault-free run — the soak verifies exactly that,
and accounts for how much work the faults cost (restarts, shard
retries, recomputed cells).

Faults that kill or fail a *worker* (crash, hang + watchdog, error) are
absorbed in-process by the shard supervisor; faults that kill the
*parent* (torn writes fsync a strict prefix of one line, then
``os._exit``) surface as a non-zero subprocess exit and are healed by
the next ``--resume`` iteration.  The plan holds only faults that fire
exactly once across the whole restart loop, and the soak fails unless
the faults that fired match the plan kind for kind.

Used by ``repro chaos-soak``; ``tests/faults/test_soak.py`` runs a
fig7 soak end to end.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro
from repro.exp import registry
from repro.exp.runner import _contiguous_groups, run_experiment
from repro.exp.spec import ExperimentSpec
from repro.exp.store import RunStore
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.util.rng import derive_rng

_SUMMARY = re.compile(
    r"(?P<state>complete|partial): (?P<cells>\d+) cells "
    r"\((?P<loaded>\d+) loaded, (?P<computed>\d+) computed, "
    r"(?P<recomputed>\d+) recomputed\)"
)
#: one line per scheduled shard retry (``runner._announce_retry``).
_RETRY_LINE = re.compile(
    r"^runner: shard retry at \S+ \(attempt \d+\): (?P<reason>.*)$",
    re.MULTILINE,
)

#: torn writes exit the parent with this code (mirrors SIGKILL's 128+9).
TORN_EXIT = 137

#: (planned_faults key, rule kind, ``fired`` key): how each planned
#: fault shows up once it fires.
_KINDS = (
    ("crashes", "crash", "worker_died"),
    ("hangs", "hang", "watchdog_timeout"),
    ("errors", "error", "error"),
    ("torn_writes", "torn", "torn_writes"),
)


class SoakError(RuntimeError):
    """The soak failed to converge or its invariants did not hold."""


def _retry_cause(reason: str) -> str:
    """The ``fired`` bucket of one announced shard retry, read off the
    reasons :func:`repro.exp.runner._run_sharded_pool` reports."""
    if reason.startswith("worker died"):
        return "worker_died"
    if "shard watchdog" in reason:
        return "watchdog_timeout"
    return "error"


def build_soak_plan(
    spec: ExperimentSpec,
    *,
    crashes: int = 0,
    torn_writes: int = 0,
    errors: int = 0,
    hangs: int = 0,
    hang_seconds: float = 30.0,
    shard_retries: int = 3,
    seed: int = 0,
) -> FaultPlan:
    """Schedule faults that each fire exactly once, pinned to the spec's
    shard and cell layout so the schedule survives process restarts.

    Worker faults (crashes, hangs, errors) are ``runner.shard_start``
    rules keyed on ``(start, attempt, mode="shard")`` over one (shard,
    attempt) grid: the first ``m`` shards in expansion order, attempts
    ``0 .. shard_retries - 1``. The grid fills attempt by attempt —
    attempt ``a`` of a shard runs only after its attempts ``0 .. a - 1``
    failed — so no shard exhausts its retries. Torn writes go on cells of
    the later shards: the first run commits every worker-fault shard
    before its first torn write kills it, so no resumed run dispatches
    those shards again. ``m`` is the split that fits the most requested
    faults while leaving each side a shard; the rest are not planned, so
    count the plan's rules (:func:`planned_faults`), not the request.
    """
    kernel = registry.kernel(spec.experiment)
    cells = [dict(cell) for cell in kernel.expand(spec)]
    if not cells:
        raise SoakError(f"spec {spec.experiment!r} expands to zero cells")
    groups = _contiguous_groups(spec, kernel, cells)
    rng = derive_rng(seed, "chaos-soak", spec.spec_hash())

    pool = len(groups) > 1  # worker faults need the pool: >= 2 shards
    worker_faults = crashes + hangs + errors

    def torn_from(split: int) -> int:
        # Torn indices exclude 0: the hit delta below must be >= 1.
        return max(1, groups[split].start if split < len(groups) else len(cells))

    def fits(split: int) -> Tuple[int, int]:
        worker = min(worker_faults, split * shard_retries) if pool else 0
        return worker, min(torn_writes, len(cells) - torn_from(split))

    # Leave each side that was asked for at least one shard.
    low = 1 if pool and worker_faults else 0
    high = len(groups) - 1 if pool and torn_writes else len(groups)
    m = max(range(low, high + 1), key=lambda split: (sum(fits(split)), -split))
    worker_fit, torn_fit = fits(m)

    wanted = {"crash": crashes, "hang": hangs, "error": errors}
    kinds: List[str] = []
    while len(kinds) < worker_fit:  # interleave, so a cut keeps the mix
        for kind in wanted:
            if wanted[kind] and len(kinds) < worker_fit:
                kinds.append(kind)
                wanted[kind] -= 1
    starts = [group.start for group in groups[:m]]
    rng.shuffle(starts)
    rules: List[Dict[str, Any]] = []
    for ordinal, kind in enumerate(kinds):
        attempt, slot = divmod(ordinal, m)
        rule: Dict[str, Any] = {
            "site": "runner.shard_start",
            "kind": kind,
            # mode=shard: only supervised worker dispatches fault.  A
            # resume that leaves one pending shard runs serially in the
            # parent — crashing there would loop the restart forever.
            "when": {"start": starts[slot], "attempt": attempt,
                     "mode": "shard"},
            "times": 1,
        }
        if kind == "hang":
            rule["args"] = {"seconds": hang_seconds}
        rules.append(rule)
    # Torn writes: distinct absolute cell indices, each fired exactly
    # once across the whole soak.  A rule keyed on ``index`` alone would
    # never converge — tearing at index i leaves i off disk, so every
    # resume recommits i and re-triggers the re-armed rule.  Commits are
    # strictly sequential, so pinning ``hit`` (the per-process append
    # counter) to ``index - previous_torn_index`` matches only the
    # first-ever commit of that index: after the restart the resumed
    # process reaches index i at hit 0, never at the pinned delta
    # (deltas are >= 1 because indices are distinct and exclude 0).
    previous = 0
    for index in sorted(rng.sample(range(torn_from(m), len(cells)), torn_fit)):
        rules.append({
            "site": "store.commit",
            "kind": "torn",
            "when": {"index": index, "hit": index - previous},
            "times": 1,
        })
        previous = index
    return FaultPlan.build(seed=seed, rules=rules)


def planned_faults(plan: FaultPlan) -> Dict[str, int]:
    """The plan's faults by kind, counted from its rules."""
    kinds = [rule.kind for rule in plan.rules]
    counts = {key: kinds.count(kind) for key, kind, _ in _KINDS}
    counts["total"] = sum(counts.values())
    return counts


def _python_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    existing = env.get("PYTHONPATH")
    if not existing:
        env["PYTHONPATH"] = package_root
    elif package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = package_root + os.pathsep + existing
    if extra:
        env.update(extra)
    return env


def run_soak(
    spec: ExperimentSpec,
    plan: FaultPlan,
    root: str,
    *,
    workers: int = 2,
    shard_timeout: Optional[float] = None,
    shard_retries: int = 3,
    max_restarts: Optional[int] = None,
    quiet: bool = False,
) -> Dict[str, Any]:
    """Drive ``repro run --resume`` under ``plan`` until the store completes.

    Returns an accounting dict: subprocess ``runs``, ``restarts`` (runs
    that died, expected to match the torn-write schedule), summed
    ``computed``/``recomputed`` cells, in-run ``shard_retries``, and
    ``fired``: the faults that actually went off, by cause — shard
    retries split into ``worker_died``, ``watchdog_timeout`` and
    ``error``, plus ``torn_writes`` (runs that exited with
    :data:`TORN_EXIT`).
    """
    os.makedirs(root, exist_ok=True)
    spec_path = os.path.join(root, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        handle.write(spec.canonical_json() + "\n")
    plan_path = os.path.join(root, "fault-plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        handle.write(plan.canonical_json() + "\n")
    store_root = os.path.join(root, "store")

    torn_planned = sum(
        1 for rule in plan.rules
        if rule.site == "store.commit" and rule.kind == "torn"
    )
    if max_restarts is None:
        max_restarts = 2 * torn_planned + 10

    command = [
        sys.executable, "-m", "repro", "run", spec_path,
        "--store", store_root, "--resume", "--workers", str(workers),
        "--chaos", plan_path, "--shard-retries", str(shard_retries),
    ]
    if shard_timeout is not None:
        command += ["--shard-timeout", str(shard_timeout)]
    env = _python_env()

    report: Dict[str, Any] = {
        "runs": 0, "restarts": 0, "computed": 0, "recomputed": 0,
        "loaded_final": 0, "shard_retries": 0, "cells": 0,
        "fired": {
            "worker_died": 0, "watchdog_timeout": 0, "error": 0,
            "torn_writes": 0,
        },
    }
    fired = report["fired"]
    started = time.perf_counter()
    for _ in range(max_restarts + 1):
        proc = subprocess.run(
            command, capture_output=True, text=True, env=env,
        )
        report["runs"] += 1
        # Count retry lines, not the summary: a run killed by a torn
        # write never prints its summary.
        for reason in _RETRY_LINE.findall(proc.stderr):
            report["shard_retries"] += 1
            fired[_retry_cause(reason)] += 1
        summary = None
        for line in reversed(proc.stderr.splitlines()):
            match = _SUMMARY.search(line)
            if match:
                summary = match
                break
        if summary is not None:
            report["computed"] += int(summary.group("computed"))
            report["recomputed"] += int(summary.group("recomputed"))
        if proc.returncode == 0:
            if summary is None or summary.group("state") != "complete":
                raise SoakError(
                    "soak subprocess exited 0 without a complete run:\n"
                    + proc.stderr[-2000:]
                )
            report["cells"] = int(summary.group("cells"))
            report["loaded_final"] = int(summary.group("loaded"))
            report["elapsed"] = time.perf_counter() - started
            report["store"] = store_root
            report["plan_hash"] = plan.plan_hash()
            return report
        # Died mid-run (torn write exits TORN_EXIT; anything else is
        # still worth restarting — the store heals on resume).
        report["restarts"] += 1
        if proc.returncode == TORN_EXIT:
            fired["torn_writes"] += 1
        if not quiet:
            print(
                f"chaos-soak: run {report['runs']} died "
                f"(exit {proc.returncode}); resuming",
                file=sys.stderr,
            )
    raise SoakError(
        f"store did not complete within {max_restarts} restarts "
        f"({torn_planned} torn writes planned) — the fault schedule "
        "is not converging"
    )


def verify_against_reference(
    spec: ExperimentSpec,
    chaos_store: str,
    reference_root: str,
) -> Tuple[int, bytes]:
    """Run the spec fault-free and assert byte-identity of the stores.

    Returns ``(cell_count, sha-ready bytes)`` of the verified file.
    Raises :class:`SoakError` on any divergence.  Chaos is force-disabled
    for the reference run (the soak itself may be running under
    ``REPRO_CHAOS``); the injector reverts to the environment afterwards.
    """
    from repro import faults

    reference = RunStore(reference_root)
    faults.configure(None)
    try:
        result = run_experiment(spec, store=reference, workers=2)
    finally:
        faults.clear()
    if not result.complete:
        raise SoakError("fault-free reference run did not complete")
    with open(reference.cells_file(spec), "rb") as handle:
        want = handle.read()
    with open(RunStore(chaos_store).cells_file(spec), "rb") as handle:
        got = handle.read()
    if got != want:
        raise SoakError(
            "chaos store diverged from the fault-free reference "
            f"({len(got)} vs {len(want)} bytes)"
        )
    return len(result.cells), want


def soak(
    spec: ExperimentSpec,
    root: str,
    *,
    faults: int = 20,
    seed: int = 0,
    workers: int = 2,
    shard_timeout: Optional[float] = None,
    shard_retries: int = 3,
    hang_seconds: float = 30.0,
    quiet: bool = False,
) -> Dict[str, Any]:
    """Plan up to ``faults`` injections, soak the spec, verify byte-identity.

    The fault budget is split roughly 40% worker crashes / 30% torn
    writes / 20% worker errors, with the remainder as hangs when a
    ``shard_timeout`` watchdog is armed (hangs without a watchdog would
    stall the soak instead of testing it). Worker faults fire only in
    pool workers, so a ``workers=1`` soak plans torn writes alone.
    :func:`build_soak_plan` keeps what fits the spec's layout; the report
    states those ``planned_faults``, and the soak fails unless exactly
    they fired.
    """
    if faults < 1:
        raise SoakError("need at least one fault to soak")
    crashes = max(1, (2 * faults) // 5)
    torn_writes = max(1, (3 * faults) // 10)
    errors = max(1, faults // 5)
    hangs = 0
    if shard_timeout is not None:
        hangs = max(0, faults - crashes - torn_writes - errors)
    else:
        errors = max(errors, faults - crashes - torn_writes)
    if workers < 2:
        crashes = errors = hangs = 0
    plan = build_soak_plan(
        spec,
        crashes=crashes,
        torn_writes=torn_writes,
        errors=errors,
        hangs=hangs,
        hang_seconds=hang_seconds,
        shard_retries=shard_retries,
        seed=seed,
    )
    report = run_soak(
        spec, plan, root,
        workers=workers,
        shard_timeout=shard_timeout,
        shard_retries=shard_retries,
        quiet=quiet,
    )
    cell_count, _ = verify_against_reference(
        spec, report["store"], os.path.join(root, "reference")
    )
    report["byte_identical"] = True
    planned = report["planned_faults"] = planned_faults(plan)
    # Fault-cost invariants.  Worker faults are absorbed in-run by the
    # supervisor; only torn writes kill the parent, so restarts must
    # match the torn schedule exactly, and every planned fault must have
    # fired exactly once.
    torn = planned["torn_writes"]
    if report["restarts"] != torn:
        raise SoakError(
            f"expected exactly {torn} restarts (one per torn write), "
            f"saw {report['restarts']} — a fault escaped the supervisor "
            "or a torn rule misfired"
        )
    fired = report["fired"]
    off_plan = [
        f"{planned[key]} {key} planned, {fired[cause]} {cause} fired"
        for key, _, cause in _KINDS
        if planned[key] != fired[cause]
    ]
    if off_plan:
        raise SoakError("faults fired off plan: " + "; ".join(off_plan))
    # Only fault-straddling shards may be recomputed on resume: each
    # restart re-runs at most one shard's prefix overlap.
    kernel = registry.kernel(spec.experiment)
    cells = [dict(cell) for cell in kernel.expand(spec)]
    groups = _contiguous_groups(spec, kernel, cells)
    max_group = max(group.size for group in groups)
    budget = report["restarts"] * max_group
    if report["recomputed"] > budget:
        raise SoakError(
            f"resumes recomputed {report['recomputed']} stored cells; "
            f"at most {budget} ({report['restarts']} restarts x "
            f"{max_group}-cell shards) are attributable to the faults"
        )
    report["cell_count"] = cell_count
    report["max_group"] = max_group
    return report
