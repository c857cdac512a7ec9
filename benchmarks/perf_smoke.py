"""Tiny-scale CI perf smoke: floors the fast paths must never sink below.

A guard, not a benchmark:

* **gain-engine floor** — a small LocalSearch ladder (n=31, b=600 —
  seconds even on a throttled CI runner) through the auto-resolved gain
  backing and through the pure-python gain backing; fails if the damages
  differ or the auto backing is slower.
* **placement-scale floor** — build an array-backed placement plus its
  engine structures (loads, CSR, fingerprint, gain kernel) at
  b = 200 000, once through ``Placement.from_arrays`` and once through a
  re-implementation of the historical frozenset pipeline; fails if the
  array core is slower than the frozenset baseline or blows a generous
  wall-clock budget.
* **sharded-runner floor** — the Fig. 7 experiment spec through the
  declarative runner serially and with 2 worker processes; fails if the
  results differ at all (sharding must be semantically invisible) or if
  sharding costs more than pool overhead can explain — i.e. the fan-out
  silently degraded into serialization-plus-copying. On multi-core
  runners the sharded run must beat a modest ceiling below serial-plus-
  overhead; single-core runners only gate the overhead bound.
* **affinity-pool identity** — the fig2 shards through the persistent
  affinity pool must equal the same shards run serially, bit for bit.

The real perf records (paper scale / million-object scale) live in
``BENCH_2.json`` / ``benchmarks/output/BENCH_kernels.json`` and
``bench_placement.py`` / ``BENCH_4.json``; this script only catches the
"fast path silently degraded below the floor" failure modes.

Run::

    PYTHONPATH=src python benchmarks/perf_smoke.py

Exits non-zero (with a JSON diagnostic on stdout) on regression.
"""

import hashlib
import json
import random
import sys
import time

from repro.core.adversary import LocalSearchAdversary
from repro.core.kernels import Incidence, make_kernel, resolve_gain_backing
from repro.core.placement import Placement
from repro.core.random_placement import RandomStrategy

N, B, S = 31, 600, 2
K_VALUES = (2, 3, 4)
ROUNDS = 7
#: Timing-noise allowance: "at least as fast" with 10% grace on a 2-digit
#: millisecond measurement.
SLACK = 1.10

#: Placement-scale gate: object count, node count, and the wall-clock
#: budget (seconds) for one array-path construction-to-engine-ready pass.
#: The budget is ~20x the measured time on a laptop — it exists to catch
#: an accidental O(b^2) or a silent fallback to per-object Python work,
#: not to benchmark the runner.
SCALE_B, SCALE_N, SCALE_R = 200_000, 512, 3
SCALE_BUDGET_SECONDS = 5.0


def sweep_seconds(kernel) -> float:
    adversary = LocalSearchAdversary(restarts=2, seed=0)
    placement = kernel.placement
    best = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for k in K_VALUES:
            adversary.attack(placement, k, S, kernel=kernel)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _scale_rows():
    """Valid sorted/distinct rows at gate scale, cheap to generate."""
    rows = []
    span = SCALE_N - SCALE_R
    for i in range(SCALE_B):
        start = (i * 7919) % span
        rows.append(tuple(range(start, start + SCALE_R)))
    return rows


def _array_ready_seconds(rows) -> float:
    start = time.perf_counter()
    placement = Placement.from_arrays(
        SCALE_N, rows, strategy="gate", validate=False
    )
    placement.load_array()
    placement.node_csr()
    placement.fingerprint()
    incidence = Incidence(placement)
    make_kernel(placement, S, incidence=incidence)
    incidence.csr()
    return time.perf_counter() - start


def legacy_build(n: int, replica_sets):
    """Validate + snapshot per-object node sets, as the pre-PR-4 core did.

    This and :func:`legacy_engine_structures` are the single definition of
    the historical frozenset pipeline — ``bench_placement.py`` imports
    them, so the CI floor gate and the BENCH_4 record measure the same
    baseline.
    """
    frozen = []
    r = None
    for obj_id, nodes in enumerate(replica_sets):
        node_list = list(nodes)
        node_set = frozenset(node_list)
        if len(node_set) != len(node_list):
            raise ValueError(f"object {obj_id} repeats a node")
        if r is None:
            r = len(node_set)
        if len(node_set) != r:
            raise ValueError(f"object {obj_id} has wrong r")
        for node in node_set:
            if not 0 <= node < n:
                raise ValueError(f"node {node} out of range")
        frozen.append(node_set)
    return tuple(frozen)


def legacy_engine_structures(n: int, replica_sets):
    """Loads, node incidence, CSR and fingerprint via per-set Python loops."""
    from array import array

    loads = [0] * n
    for nodes in replica_sets:
        for node in nodes:
            loads[node] += 1
    table = [[] for _ in range(n)]
    for obj_id, nodes in enumerate(replica_sets):
        for node in nodes:
            table[node].append(obj_id)
    incidence = tuple(tuple(row) for row in table)
    node_off = array("i", [0])
    node_objs = array("i")
    for objs in incidence:
        node_objs.extend(objs)
        node_off.append(len(node_objs))
    obj_off = array("i", [0])
    obj_nodes = array("i")
    for nodes in replica_sets:
        obj_nodes.extend(sorted(nodes))
        obj_off.append(len(obj_nodes))
    digest = hashlib.sha256()
    digest.update(f"{n}:{len(replica_sets)}".encode())
    for nodes in replica_sets:
        digest.update(b"|")
        digest.update(",".join(map(str, sorted(nodes))).encode())
    structures = (node_off, node_objs, obj_off, obj_nodes)
    return loads, incidence, structures, digest.hexdigest()


def _frozenset_ready_seconds(rows) -> float:
    start = time.perf_counter()
    frozen = legacy_build(SCALE_N, rows)
    legacy_engine_structures(SCALE_N, frozen)
    return time.perf_counter() - start


def placement_scale_gate(report: dict) -> int:
    rows = _scale_rows()
    array_seconds = min(_array_ready_seconds(rows) for _ in range(3))
    frozen_seconds = min(_frozenset_ready_seconds(rows) for _ in range(2))
    report["placement_scale"] = {
        "b": SCALE_B, "n": SCALE_N, "r": SCALE_R,
        "array_seconds": round(array_seconds, 4),
        "frozenset_seconds": round(frozen_seconds, 4),
        "speedup": round(frozen_seconds / array_seconds, 2),
        "budget_seconds": SCALE_BUDGET_SECONDS,
    }
    if array_seconds > SCALE_BUDGET_SECONDS:
        print(
            f"FAIL: array placement path took {array_seconds:.3f}s at "
            f"b={SCALE_B}, over the {SCALE_BUDGET_SECONDS:.1f}s budget",
            file=sys.stderr,
        )
        return 1
    if array_seconds > frozen_seconds * SLACK:
        print(
            f"FAIL: array placement path ({array_seconds:.3f}s) slower "
            f"than the frozenset baseline ({frozen_seconds:.3f}s)",
            file=sys.stderr,
        )
        return 1
    return 0


#: Sharded-runner gate: fixed pool-spawn/IPC allowance plus the ratio the
#: sharded wall clock must stay under on hosts where fan-out can actually
#: overlap (>= 2 cores). On a single core the comparison is meaningless —
#: the work cannot overlap and fork overhead swamps any grace ratio on a
#: loaded machine — so only the bit-identical check runs there.
SHARD_OVERHEAD_SECONDS = 0.75
SHARD_MULTI_CORE_RATIO = 1.10


def exp_shard_gate(report: dict) -> int:
    import os

    from repro.analysis import fig7
    from repro.core.batch import clear_attack_caches
    from repro.exp.runner import run_experiment

    spec = fig7.default_spec()
    clear_attack_caches()
    start = time.perf_counter()
    serial = run_experiment(spec, workers=1)
    serial_seconds = time.perf_counter() - start
    clear_attack_caches()
    start = time.perf_counter()
    sharded = run_experiment(spec, workers=2)
    sharded_seconds = time.perf_counter() - start
    cores = os.cpu_count() or 1
    gated = cores >= 2
    budget = (
        serial_seconds * SHARD_MULTI_CORE_RATIO + SHARD_OVERHEAD_SECONDS
        if gated else None
    )
    report["exp_shard"] = {
        "experiment": spec.experiment,
        "cells": len(serial.cells),
        "shards": serial.groups,
        "cpu_count": cores,
        "serial_seconds": round(serial_seconds, 4),
        "sharded_seconds": round(sharded_seconds, 4),
        "budget_seconds": round(budget, 4) if gated else None,
        "wall_clock_gated": gated,
        "bit_identical": serial.metrics == sharded.metrics,
    }
    if serial.metrics != sharded.metrics:
        print(
            "FAIL: sharded experiment results diverged from serial results",
            file=sys.stderr,
        )
        return 1
    if gated and sharded_seconds > budget:
        print(
            f"FAIL: sharded runner took {sharded_seconds:.3f}s vs "
            f"{serial_seconds:.3f}s serial (budget {budget:.3f}s, "
            f"{cores} cores)",
            file=sys.stderr,
        )
        return 1
    return 0


def affinity_pool_gate(report: dict) -> int:
    """fig2 shards through the affinity pool must equal the serial loop.

    Bit-identity only: the pool is the sole sharded dispatcher, and its
    wall time against serial is already gated by ``exp_shard_gate``.
    """
    from repro.analysis import fig2
    from repro.core.batch import clear_attack_caches
    from repro.exp.registry import kernel as experiment_kernel
    from repro.exp.runner import _contiguous_groups, _run_sharded_pool

    spec = fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=4)
    definition = experiment_kernel(spec.experiment)
    cells = [dict(cell) for cell in definition.expand(spec)]
    groups = _contiguous_groups(spec, definition, cells)

    def collect(run):
        metrics = [None] * len(cells)

        def flush(group, chunk):
            for offset, entry in enumerate(chunk):
                metrics[group.start + offset] = entry

        clear_attack_caches()
        run(flush)
        return json.loads(json.dumps(metrics))

    def serial(flush):
        for group in groups:
            flush(group, definition.run_group(
                spec, cells[group.start:group.end]
            ))

    serial_metrics = collect(serial)
    pool_metrics = collect(
        lambda flush: _run_sharded_pool(
            spec, definition, cells, groups, 2, flush
        )
    )
    identical = serial_metrics == pool_metrics
    report["affinity_pool"] = {
        "experiment": spec.experiment,
        "cells": len(cells),
        "shards": len(groups),
        "bit_identical": identical,
    }
    if not identical:
        print(
            "FAIL: affinity pool results diverged from the serial run",
            file=sys.stderr,
        )
        return 1
    return 0


def main() -> int:
    placement = RandomStrategy(N, 3).place(B, random.Random(0))
    gain = make_kernel(placement, S)
    python = make_kernel(placement, S, gain_backing="python")
    gain_damages = tuple(
        LocalSearchAdversary(restarts=2, seed=0).attack(
            placement, k, S, kernel=gain
        ).damage
        for k in K_VALUES
    )
    python_damages = tuple(
        LocalSearchAdversary(restarts=2, seed=0).attack(
            placement, k, S, kernel=python
        ).damage
        for k in K_VALUES
    )
    gain_seconds = sweep_seconds(gain)
    python_seconds = sweep_seconds(python)
    report = {
        "n": N, "b": B, "s": S, "k_values": list(K_VALUES),
        "gain_backing": resolve_gain_backing(),
        "gain_seconds": round(gain_seconds, 5),
        "python_seconds": round(python_seconds, 5),
        "speedup": round(python_seconds / gain_seconds, 2),
        "damages_agree": gain_damages == python_damages,
    }
    status = placement_scale_gate(report)
    status = exp_shard_gate(report) or status
    status = affinity_pool_gate(report) or status
    print(json.dumps(report))
    if gain_damages != python_damages:
        print("FAIL: auto and python gain backings disagree", file=sys.stderr)
        return 1
    if gain_seconds > python_seconds * SLACK:
        print(
            f"FAIL: auto gain backing ({gain_seconds:.4f}s) slower than "
            f"pure python ({python_seconds:.4f}s)",
            file=sys.stderr,
        )
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
