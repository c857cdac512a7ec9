"""Chaos soak: run a figure grid to completion under injected faults.

The soak is the end-to-end proof behind the fault framework: build a
:class:`~repro.faults.plan.FaultPlan` that schedules worker crashes,
torn store writes, hangs, and transient kernel failures across a real
figure grid, then drive ``repro run --resume`` in a subprocess restart
loop until the store completes.  Because shards are pure functions of
the spec and the store commits in expansion order, the final
``cells.jsonl`` must be **byte-identical** to a fault-free run — the
soak verifies exactly that, and accounts for how much work the faults
cost (restarts, shard retries, recomputed cells).

Faults that kill a *worker* (crash, hang + watchdog) are absorbed
in-process by the shard supervisor; faults that kill the *parent*
(torn writes fsync a strict prefix of one line, then ``os._exit``)
surface as a non-zero subprocess exit and are healed by the next
``--resume`` iteration.  Both paths are exercised deliberately.

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
    dispatch_errors: int = 0,
    hangs: int = 0,
    hang_seconds: float = 30.0,
    seed: int = 0,
) -> FaultPlan:
    """Schedule faults against a spec's actual shard/cell layout.

    Every rule is pinned to stable coordinates — shard ``start`` offsets
    for crashes/hangs, absolute cell ``index`` values for torn writes —
    so the schedule survives process restarts: a fault fires exactly
    where planned no matter how many times the run is resumed.
    Dispatch errors are keyed on per-process visit counters instead
    (``hit``), so they re-arm after a restart; the dispatch retry loop
    absorbs them either way.
    """
    kernel = registry.kernel(spec.experiment)
    cells = [dict(cell) for cell in kernel.expand(spec)]
    if not cells:
        raise SoakError(f"spec {spec.experiment!r} expands to zero cells")
    groups = _contiguous_groups(spec, kernel, cells)
    rng = derive_rng(seed, "chaos-soak", spec.spec_hash())

    rules: List[Dict[str, Any]] = []
    # Crashes: distinct shards first, then a second strike at attempt 1
    # on the earliest-hit shards (exercises the demotion-after-repeat
    # path without ever exceeding the retry budget).
    starts = [group.start for group in groups]
    rng.shuffle(starts)
    for ordinal in range(crashes):
        attempt, slot = divmod(ordinal, len(starts))
        if attempt >= 2:  # never schedule past the default retry budget
            break
        rules.append({
            "site": "runner.shard_start",
            "kind": "crash",
            # mode=shard: only supervised worker dispatches crash.  A
            # resume that leaves one pending shard runs serially in the
            # parent — crashing there would loop the restart forever.
            "when": {"start": starts[slot], "attempt": attempt,
                     "mode": "shard"},
            "times": 1,
        })
    for ordinal in range(hangs):
        attempt, slot = divmod(crashes + ordinal, len(starts))
        if attempt >= 2:
            break
        rules.append({
            "site": "runner.shard_start",
            "kind": "hang",
            "when": {"start": starts[slot], "attempt": attempt,
                     "mode": "shard"},
            "times": 1,
            "args": {"seconds": hang_seconds},
        })
    # Torn writes: distinct absolute cell indices, each fired exactly
    # once across the whole soak.  A rule keyed on ``index`` alone would
    # never converge — tearing at index i leaves i off disk, so every
    # resume recommits i and re-triggers the re-armed rule.  Commits are
    # strictly sequential, so pinning ``hit`` (the per-process append
    # counter) to ``index - previous_torn_index`` matches only the
    # first-ever commit of that index: after the restart the resumed
    # process reaches index i at hit 0, never at the pinned delta
    # (deltas are >= 1 because indices are distinct and exclude 0).
    population = range(1, len(cells))
    indices = sorted(
        rng.sample(population, min(torn_writes, len(population)))
    )
    previous = 0
    for index in indices:
        rules.append({
            "site": "store.commit",
            "kind": "torn",
            "when": {"index": index, "hit": index - previous},
            "times": 1,
        })
        previous = index
    for ordinal in range(dispatch_errors):
        rules.append({
            "site": "kernels.dispatch",
            "kind": "error",
            "when": {"hit": 2 * ordinal},
            "times": 1,
        })
    return FaultPlan.build(seed=seed, rules=rules)


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
    """Plan ``faults`` injections, soak the spec, verify byte-identity.

    The fault budget is split roughly 40% worker crashes / 30% torn
    writes / 20% transient dispatch errors, with the remainder as hangs
    when a ``shard_timeout`` watchdog is armed (hangs without a watchdog
    would stall the soak instead of testing it).
    """
    if faults < 1:
        raise SoakError("need at least one fault to soak")
    crashes = max(1, (2 * faults) // 5)
    torn_writes = max(1, (3 * faults) // 10)
    dispatch_errors = max(1, faults // 5)
    hangs = 0
    if shard_timeout is not None:
        hangs = max(0, faults - crashes - torn_writes - dispatch_errors)
    else:
        dispatch_errors = max(
            dispatch_errors, faults - crashes - torn_writes
        )
    plan = build_soak_plan(
        spec,
        crashes=crashes,
        torn_writes=torn_writes,
        dispatch_errors=dispatch_errors,
        hangs=hangs,
        hang_seconds=hang_seconds,
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
    report["planned_faults"] = {
        "crashes": crashes,
        "torn_writes": torn_writes,
        "dispatch_errors": dispatch_errors,
        "hangs": hangs,
        "total": crashes + torn_writes + dispatch_errors + hangs,
    }
    # Fault-cost invariants.  Worker faults (crashes, hangs, dispatch
    # errors) are absorbed in-run by the supervisor; only torn writes
    # kill the parent, so restarts must match the torn schedule exactly.
    torn = report["planned_faults"]["torn_writes"]
    if report["restarts"] != torn:
        raise SoakError(
            f"expected exactly {torn} restarts (one per torn write), "
            f"saw {report['restarts']} — a fault escaped the supervisor "
            "or a torn rule misfired"
        )
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
