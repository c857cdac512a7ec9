"""Warm-path benchmark: engine-state hydration + affinity-pool dispatch.

Two claims from the zero-rebuild warm path, measured and gated:

* **hydration** — rebuilding a warm :class:`AttackEngine` from a packed
  engine-state snapshot (mmap-backed ``.npz``) must be at least 5x
  faster than the cold path (placement construction, loads, CSR,
  fingerprint, incidence, per-threshold gain-kernel state) at million-
  object scale. The hydrated engine is checked bit-for-bit against the
  cold build: same fingerprint, same packed kernel state for every
  threshold, same attack results.
* **affinity dispatch** — the fig2 and fig7 grids through the
  persistent affinity-routed worker pool versus the same shards run
  serially in this process. Results must be identical on both sides;
  min-of-N alternating wall times are recorded, not gated (the pool is
  the only sharded dispatcher, so there is no alternative to gate it
  against).

Run::

    PYTHONPATH=src python benchmarks/bench_warm.py

Writes ``BENCH_9.json`` at the repository root (override with
``REPRO_BENCH_OUT``). CI smoke (small scale, gates only, looser
hydration gate because fixed per-file costs dominate tiny snapshots,
no BENCH_9.json)::

    PYTHONPATH=src python benchmarks/bench_warm.py --smoke

``REPRO_WORKERS`` sets the pool width (default 4).
"""

import argparse
import json
import os
import pathlib
import sys
import tempfile
import time

from repro.analysis import fig2, fig7
from repro.core.batch import (
    AttackCell,
    AttackEngine,
    clear_attack_caches,
    hydrate_engine,
    snapshot_engine,
)
from repro.core.placement import Placement
from repro.exp.registry import kernel as experiment_kernel
from repro.exp.runner import (
    _contiguous_groups,
    _run_sharded_pool,
)

DEFAULT_WORKERS = 4
HYDRATE_B_FULL, HYDRATE_B_SMOKE = 1_000_000, 60_000
HYDRATE_N, HYDRATE_R = 512, 3
HYDRATE_S_VALUES = (1, 2, 3)
HYDRATE_GATE_FULL = 5.0
HYDRATE_GATE_SMOKE = 2.0
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _rows(b):
    """Valid sorted/distinct rows at scale, cheap to generate."""
    span = HYDRATE_N - HYDRATE_R
    return [
        tuple(range((i * 7919) % span, (i * 7919) % span + HYDRATE_R))
        for i in range(b)
    ]


def _cold_engine(rows):
    """Everything a cold process pays before its first attack."""
    placement = Placement.from_arrays(
        HYDRATE_N, rows, strategy="bench", validate=False
    )
    placement.load_array()
    placement.node_csr()
    placement.fingerprint()
    engine = AttackEngine(placement)
    for s in HYDRATE_S_VALUES:
        engine.kernel(s)
    return engine


def _warm_engine(path):
    """The same readiness via the snapshot (mmap + checksum verify)."""
    engine = hydrate_engine(path, mmap=True)
    if engine is None:
        raise AssertionError(f"{path}: snapshot refused to hydrate")
    for s in HYDRATE_S_VALUES:
        engine.kernel(s)
    return engine


def _packed_states(engine):
    states = {}
    for s in HYDRATE_S_VALUES:
        kernel = engine.kernel(s)
        export = getattr(kernel, "export_state", None)
        if export is not None:
            states[s] = export(kernel.empty_hits())
    return states


def _probe_attacks(engine):
    return [
        engine.attack(AttackCell(k, 2, "fast"), seed=3)
        for k in (2, 3)
    ]


def bench_hydration(b, reps, gate):
    rows = _rows(b)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "engine.npz")
        cold_times, warm_times = [], []
        reference = None
        for _ in range(reps):
            clear_attack_caches()
            begin = time.perf_counter()
            cold = _cold_engine(rows)
            cold_times.append(time.perf_counter() - begin)
            if reference is None:
                snapshot_engine(cold, path, s_values=HYDRATE_S_VALUES)
                reference = {
                    "fingerprint": cold.placement.fingerprint(),
                    "states": _packed_states(cold),
                    "attacks": _probe_attacks(cold),
                }
            clear_attack_caches()
            begin = time.perf_counter()
            warm = _warm_engine(path)
            warm_times.append(time.perf_counter() - begin)
        identical = (
            warm.placement.fingerprint() == reference["fingerprint"]
            and _packed_states(warm) == reference["states"]
            and _probe_attacks(warm) == reference["attacks"]
        )
        snapshot_bytes = os.path.getsize(path)
    clear_attack_caches()
    best_cold, best_warm = min(cold_times), min(warm_times)
    speedup = best_cold / best_warm
    return {
        "b": b,
        "n": HYDRATE_N,
        "r": HYDRATE_R,
        "s_values": list(HYDRATE_S_VALUES),
        "reps": reps,
        "snapshot_bytes": snapshot_bytes,
        "cold_seconds": round(best_cold, 4),
        "hydrate_seconds": round(best_warm, 4),
        "speedup": round(speedup, 2),
        "gate": gate,
        "bit_identical": identical,
        "pass": identical and speedup >= gate,
    }


def _dispatch(spec, workers, run):
    """One timed pass of ``run`` over the spec's shards; returns metrics."""
    definition = experiment_kernel(spec.experiment)
    cells = [dict(cell) for cell in definition.expand(spec)]
    groups = _contiguous_groups(spec, definition, cells)
    metrics = [None] * len(cells)

    def flush(group, chunk):
        for offset, entry in enumerate(chunk):
            metrics[group.start + offset] = entry

    clear_attack_caches()
    begin = time.perf_counter()
    retries = run(spec, definition, cells, groups, workers, flush)
    elapsed = time.perf_counter() - begin
    if retries != 0:
        raise AssertionError(
            f"fault-free dispatch reported {retries} shard retries"
        )
    return elapsed, json.loads(json.dumps(metrics))


def _run_serial(spec, definition, cells, groups, workers, flush):
    """The in-process reference: every shard, in order, no fan-out."""
    for group in groups:
        flush(group, definition.run_group(spec, cells[group.start:group.end]))
    return 0


def bench_pool(spec, workers, reps):
    serial_times, pool_times = [], []
    identical = True
    for _ in range(reps):
        serial_seconds, serial_metrics = _dispatch(
            spec, workers, _run_serial
        )
        pool_seconds, pool_metrics = _dispatch(
            spec, workers, _run_sharded_pool
        )
        identical = identical and serial_metrics == pool_metrics
        serial_times.append(serial_seconds)
        pool_times.append(pool_seconds)
    best_serial, best_pool = min(serial_times), min(pool_times)
    definition = experiment_kernel(spec.experiment)
    cells = [dict(cell) for cell in definition.expand(spec)]
    groups = _contiguous_groups(spec, definition, cells)
    return {
        "experiment": spec.experiment,
        "spec_hash": spec.spec_hash()[:16],
        "cells": len(cells),
        "shards": len(groups),
        "workers": workers,
        "reps": reps,
        "serial_seconds": round(best_serial, 4),
        "pool_seconds": round(best_pool, 4),
        "speedup": round(best_serial / best_pool, 2),
        "bit_identical": identical,
        "pass": identical,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small scale, gates only, no BENCH_9.json",
    )
    args = parser.parse_args(argv)
    workers = int(os.environ.get("REPRO_WORKERS", "") or DEFAULT_WORKERS)
    cores = os.cpu_count() or 1

    if args.smoke:
        hydrate_b, hydrate_gate, hydrate_reps = (
            HYDRATE_B_SMOKE, HYDRATE_GATE_SMOKE, 3
        )
        pool_reps = 2
        fig2_spec = fig2.default_spec(
            b_values=(600, 1200), s_values=(2, 3), k_max=4
        )
        fig7_spec = fig7.default_spec(
            configs=((31, 5, 3, (3, 4)),), b_values=(150, 300), reps=3
        )
    else:
        hydrate_b, hydrate_gate, hydrate_reps = (
            HYDRATE_B_FULL, HYDRATE_GATE_FULL, 2
        )
        pool_reps = 3
        fig2_spec = fig2.default_spec()
        fig7_spec = fig7.default_spec()

    report = {
        "workers": workers,
        "cpu_count": cores,
        "hydration": bench_hydration(hydrate_b, hydrate_reps, hydrate_gate),
        "dispatch": {
            "fig2": bench_pool(fig2_spec, workers, pool_reps),
            "fig7": bench_pool(fig7_spec, workers, pool_reps),
        },
    }

    status = 0
    hydration = report["hydration"]
    if not hydration["bit_identical"]:
        print(
            "FAIL: hydrated engine diverged from the cold build",
            file=sys.stderr,
        )
        status = 1
    elif not hydration["pass"]:
        print(
            f"FAIL: hydration is only {hydration['speedup']:.2f}x the cold "
            f"build at b={hydration['b']} (gate {hydration['gate']:.1f}x)",
            file=sys.stderr,
        )
        status = 1
    for name, entry in report["dispatch"].items():
        if not entry["pass"]:
            print(
                f"FAIL: {name} affinity pool diverged from the serial run",
                file=sys.stderr,
            )
            status = 1

    text = json.dumps(report, indent=1)
    print(text)
    if args.smoke:
        return status
    if status == 0:
        out_path = os.environ.get(
            "REPRO_BENCH_OUT", str(ROOT / "BENCH_9.json")
        )
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
