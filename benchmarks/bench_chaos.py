"""Chaos benchmark: supervisor overhead gate + fault-soak byte-identity.

Two claims from the fault-hardening work, measured and gated:

* **overhead** — with injection disabled (no ``REPRO_CHAOS``), the
  supervised sharded runner (persistent affinity pool, result queue,
  watchdog and liveness sweeps) must cost at most 5% wall-clock over the plain
  ``Pool.map`` dispatch it replaced.  Both sides run the identical
  shard payloads; ``_run_group_task`` is kept in the runner exactly as
  this baseline.  Min-of-N alternating reps, dispatch phase only (spec
  expansion, normalization and assembly are common to both and excluded).
* **soak** — a fig2 grid and a fig7 Monte-Carlo grid each complete
  under a deterministic schedule of worker crashes, torn store writes,
  transient kernel failures, and (fig2) hangs under a shard watchdog.
  :func:`repro.faults.soak.soak` asserts the final store is
  byte-identical to a fault-free run, that restarts match the torn
  schedule exactly, and that resumes recomputed at most one shard's
  prefix overlap per restart.

Run::

    PYTHONPATH=src python benchmarks/bench_chaos.py

Writes ``BENCH_7.json`` at the repository root (override with
``REPRO_BENCH_OUT``).  CI smoke (small grids, gates only, looser
overhead gate for noisy shared runners, no BENCH_7.json)::

    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke

``REPRO_WORKERS`` sets the worker count (default 4); ``REPRO_B_MAX``
and ``REPRO_REPS`` scale the full grids as usual.
"""

import argparse
import json
import multiprocessing
import os
import pathlib
import sys
import tempfile
import time

from repro.analysis import fig2, fig7
from repro.core.batch import clear_attack_caches
from repro.exp.registry import kernel as experiment_kernel
from repro.exp.runner import (
    _contiguous_groups,
    _run_group_task,
    _run_sharded_pool,
)
from repro.faults.soak import SoakError, soak

DEFAULT_WORKERS = 4
FULL_GATE = 1.05
SMOKE_GATE = 1.25
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _expand(spec):
    definition = experiment_kernel(spec.experiment)
    cells = [dict(cell) for cell in definition.expand(spec)]
    return definition, cells, _contiguous_groups(spec, definition, cells)


def pool_dispatch(spec, workers):
    """The pre-supervisor execution shape: ``Pool.map`` over shards."""
    definition, cells, groups = _expand(spec)
    spec_json = spec.canonical_json()
    payloads = [
        (spec_json, ordinal, cells[group.start:group.end])
        for ordinal, group in enumerate(groups)
    ]
    clear_attack_caches()
    context = multiprocessing.get_context("fork")
    begin = time.perf_counter()
    with context.Pool(processes=min(workers, len(payloads))) as pool:
        chunks = pool.map(_run_group_task, payloads)
    elapsed = time.perf_counter() - begin
    metrics = [None] * len(cells)
    for ordinal, chunk in chunks:
        group = groups[ordinal]
        for offset, entry in enumerate(chunk):
            metrics[group.start + offset] = entry
    return elapsed, json.loads(json.dumps(metrics))


def supervised_dispatch(spec, workers):
    """The same shards through the supervised runner (chaos disabled)."""
    definition, cells, groups = _expand(spec)
    metrics = [None] * len(cells)

    def flush(group, chunk):
        for offset, entry in enumerate(chunk):
            metrics[group.start + offset] = entry

    clear_attack_caches()
    begin = time.perf_counter()
    retries = _run_sharded_pool(
        spec, definition, cells, groups, workers, flush
    )
    elapsed = time.perf_counter() - begin
    if retries != 0:
        raise AssertionError(
            f"fault-free supervised run reported {retries} shard retries"
        )
    return elapsed, json.loads(json.dumps(metrics))


def bench_overhead(spec, workers, reps, gate):
    pool_times, supervised_times = [], []
    reference = None
    for _ in range(reps):
        pool_seconds, pool_metrics = pool_dispatch(spec, workers)
        supervised_seconds, supervised_metrics = supervised_dispatch(
            spec, workers
        )
        if pool_metrics != supervised_metrics:
            raise AssertionError(
                "supervised dispatch diverged from the pool baseline"
            )
        if reference is None:
            reference = pool_metrics
        elif reference != pool_metrics:
            raise AssertionError("pool baseline is not deterministic")
        pool_times.append(pool_seconds)
        supervised_times.append(supervised_seconds)
    best_pool = min(pool_times)
    best_supervised = min(supervised_times)
    ratio = best_supervised / best_pool
    _, cells, groups = _expand(spec)
    return {
        "spec_hash": spec.spec_hash()[:16],
        "cells": len(cells),
        "shards": len(groups),
        "reps": reps,
        "pool_seconds": round(best_pool, 4),
        "supervised_seconds": round(best_supervised, 4),
        "overhead_ratio": round(ratio, 4),
        "gate": gate,
        "bit_identical": True,
        "pass": ratio <= gate,
    }


def bench_soak(spec, root, *, faults, seed, workers, shard_timeout=None):
    report = soak(
        spec, root,
        faults=faults, seed=seed, workers=workers,
        shard_timeout=shard_timeout,
    )
    report["spec_hash"] = spec.spec_hash()[:16]
    report["elapsed"] = round(report["elapsed"], 2)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grids, gates only, no BENCH_7.json",
    )
    args = parser.parse_args(argv)
    workers = int(os.environ.get("REPRO_WORKERS", "") or DEFAULT_WORKERS)

    if args.smoke:
        fig2_spec = fig2.default_spec(
            b_values=(600, 1200), s_values=(2, 3), k_max=4
        )
        fig7_spec = fig7.default_spec(
            configs=((31, 5, 3, (3, 4)),), b_values=(150, 300), reps=3
        )
        # Smoke shards are milliseconds of compute, so per-shard fixed
        # dispatch cost (forks) dominates both sides; the looser gate
        # only trips on gross regressions.
        overhead_spec = fig2_spec
        overhead_gate, reps = SMOKE_GATE, 3
        fig2_faults, fig7_faults = 8, 6
        fig2_timeout = None
    else:
        fig2_spec = fig2.default_spec()
        fig7_spec = fig7.default_spec(
            configs=((31, 5, 3, (3, 4, 5)),), b_values=(150, 300, 600)
        )
        # The 5% gate is measured on shards with representative compute
        # (~0.5-1s each: exact-effort adversary at k_max=4), where the
        # supervisor's fork-per-shard fixed cost must amortize.  On the
        # fast-effort grids shards finish in ~10ms and any dispatch
        # mechanism is pure fixed cost.
        overhead_spec = fig2.default_spec(
            b_values=(600, 1200, 2400), s_values=(2, 3), k_max=4,
            effort="exact",
        )
        overhead_gate, reps = FULL_GATE, 2
        fig2_faults, fig7_faults = 20, 10
        fig2_timeout = 10.0

    report = {
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "overhead": bench_overhead(
            overhead_spec, workers, reps, overhead_gate
        ),
    }
    status = 0 if report["overhead"]["pass"] else 1
    if status:
        print(
            f"FAIL: supervised dispatch is "
            f"{report['overhead']['overhead_ratio']:.2f}x the pool "
            f"baseline (gate {overhead_gate})",
            file=sys.stderr,
        )

    with tempfile.TemporaryDirectory() as scratch:
        try:
            fig2_soak = bench_soak(
                fig2_spec, os.path.join(scratch, "fig2"),
                faults=fig2_faults, seed=7, workers=workers,
                shard_timeout=fig2_timeout,
            )
            fig7_soak = bench_soak(
                fig7_spec, os.path.join(scratch, "fig7"),
                faults=fig7_faults, seed=11, workers=workers,
            )
        except SoakError as exc:
            print(f"FAIL: chaos soak: {exc}", file=sys.stderr)
            return 1
    report["soak"] = {
        "fig2": fig2_soak,
        "fig7": fig7_soak,
        "planned_faults_total": (
            fig2_soak["planned_faults"]["total"]
            + fig7_soak["planned_faults"]["total"]
        ),
        "byte_identical": True,
    }

    text = json.dumps(report, indent=1)
    print(text)
    if args.smoke:
        return status
    if status == 0:
        out_path = os.environ.get(
            "REPRO_BENCH_OUT", str(ROOT / "BENCH_7.json")
        )
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
