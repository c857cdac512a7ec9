"""Perf record for the array-native placement core (BENCH_4.json).

Measures the data path the PR-4 refactor rebuilt, at production scale
(b up to 10^6 objects), against a faithful re-implementation of the
pre-refactor frozenset pipeline:

* **construction-to-engine-ready** — from raw replica rows to a
  placement with loads, node-incidence CSR, fingerprint, and a built
  gain kernel (everything an :class:`~repro.core.batch.AttackEngine`
  needs before the first attack). The baseline replays the historical
  path: per-object frozensets, O(b r) Python validation, Python-loop
  node incidence / loads / CSR assembly, and the per-object string-join
  fingerprint.
* **resident memory** — tracemalloc-traced allocations held by each
  representation (sets + incidence tuples vs int32 buffers).
* **fingerprint** — one sha256 over the raw buffer vs b string joins.
* **save/load** — the ``.npz`` artifact round-trip (and the JSON
  round-trip at the smaller scale for comparison).

Acceptance (ISSUE 4): at b = 10^6 the array core is >= 5x faster to
engine-ready and >= 4x lighter than the frozenset baseline.

Run explicitly (bench files are not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/bench_placement.py -q

Results land in the repo-top-level ``BENCH_4.json`` and
``benchmarks/output/BENCH_placement.json``.
"""

import gc
import json
import pathlib
import tempfile
import time
import tracemalloc

import pytest
from conftest import OUTPUT_DIR, emit

from repro.core.artifact import load_npz, load_placement, save_npz, save_placement
from repro.core.kernels import Incidence, make_kernel, numpy_available
from repro.core.placement import Placement
from repro.util.tables import TextTable

JSON_PATH = OUTPUT_DIR / "BENCH_placement.json"
BENCH_4_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_4.json"

N, R, S = 1024, 3, 2
SCALES = (100_000, 1_000_000)
#: JSON round-trip is only timed at the small scale (it is the slow path
#: the artifact format replaces; at 10^6 it adds minutes for no signal).
JSON_SCALE_CAP = 100_000


def synth_rows(b: int):
    """A valid (sorted, distinct, in-range) b x R row matrix, vectorized."""
    import numpy as np

    starts = (np.arange(b, dtype=np.int64) * 7919) % (N - R)
    rows = (starts[:, None] + np.arange(R, dtype=np.int64)[None, :])
    return rows.astype(np.int32)


# The historical frozenset pipeline is defined once, in perf_smoke.py
# (which must stay importable without pytest); the CI floor gate and this
# benchmark therefore measure the same baseline by construction.
from perf_smoke import legacy_build, legacy_engine_structures  # noqa: E402


def time_array_path(rows) -> float:
    start = time.perf_counter()
    placement = Placement.from_arrays(N, rows, strategy="bench", validate=False)
    placement.load_array()
    placement.node_csr()
    placement.fingerprint()
    incidence = Incidence(placement)
    make_kernel(placement, S, incidence=incidence)
    incidence.csr()
    return time.perf_counter() - start


def time_frozenset_path(row_lists) -> float:
    start = time.perf_counter()
    frozen = legacy_build(N, row_lists)
    legacy_engine_structures(N, frozen)
    return time.perf_counter() - start


def traced(build):
    """Peak-net allocations (bytes) held by ``build``'s return value."""
    gc.collect()
    tracemalloc.start()
    keep = build()
    gc.collect()
    current, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del keep
    return current


@pytest.mark.skipif(not numpy_available(), reason="scale bench needs numpy")
def test_bench_placement_scale():
    results = {"n": N, "r": R, "s": S, "scales": {}}
    table = TextTable(
        [
            "b", "array_ready_s", "frozen_ready_s", "speedup",
            "array_mb", "frozen_mb", "mem_ratio", "npz_save_s", "npz_load_s",
        ],
        title="Array-native placement core vs frozenset baseline",
    )
    for b in SCALES:
        rows = synth_rows(b)
        row_lists = rows.tolist()

        array_ready = min(time_array_path(rows) for _ in range(3))
        frozen_ready = min(time_frozenset_path(row_lists) for _ in range(2))

        def build_array_side():
            placement = Placement.from_arrays(
                N, rows, strategy="bench", validate=False
            )
            placement.load_array()
            placement.node_csr()
            placement.fingerprint()
            return placement

        def build_frozen_side():
            frozen = legacy_build(N, row_lists)
            structures = legacy_engine_structures(N, frozen)
            return frozen, structures

        array_bytes = traced(build_array_side)
        frozen_bytes = traced(build_frozen_side)

        placement = Placement.from_arrays(
            N, rows, strategy="bench", validate=False
        )
        fp_start = time.perf_counter()
        Placement.from_arrays(
            N, rows, strategy="fp", validate=False
        ).fingerprint()
        fingerprint_seconds = time.perf_counter() - fp_start

        with tempfile.TemporaryDirectory() as tmp:
            npz_path = str(pathlib.Path(tmp) / "p.npz")
            save_start = time.perf_counter()
            save_npz(placement, npz_path)
            npz_save = time.perf_counter() - save_start
            load_start = time.perf_counter()
            reloaded = load_npz(npz_path)
            npz_load = time.perf_counter() - load_start
            assert reloaded.fingerprint() == placement.fingerprint()
            json_save = json_load = None
            if b <= JSON_SCALE_CAP:
                json_path = str(pathlib.Path(tmp) / "p.json")
                save_start = time.perf_counter()
                save_placement(placement, json_path)
                json_save = time.perf_counter() - save_start
                load_start = time.perf_counter()
                assert load_placement(json_path) == placement
                json_load = time.perf_counter() - load_start

        scale = {
            "construct_to_engine_ready_seconds": {
                "array": round(array_ready, 4),
                "frozenset": round(frozen_ready, 4),
                "speedup": round(frozen_ready / array_ready, 2),
            },
            "resident_bytes": {
                "array": array_bytes,
                "frozenset": frozen_bytes,
                "ratio": round(frozen_bytes / array_bytes, 2),
            },
            "fingerprint_seconds": round(fingerprint_seconds, 4),
            "npz_save_seconds": round(npz_save, 4),
            "npz_load_seconds": round(npz_load, 4),
        }
        if json_save is not None:
            scale["json_save_seconds"] = round(json_save, 4)
            scale["json_load_seconds"] = round(json_load, 4)
        results["scales"][str(b)] = scale
        table.add_row([
            b, f"{array_ready:.3f}", f"{frozen_ready:.3f}",
            f"{frozen_ready / array_ready:.1f}x",
            f"{array_bytes / 1e6:.1f}", f"{frozen_bytes / 1e6:.1f}",
            f"{frozen_bytes / array_bytes:.1f}x",
            f"{npz_save:.3f}", f"{npz_load:.3f}",
        ])

    top = results["scales"][str(SCALES[-1])]
    # ISSUE 4 acceptance at b = 10^6.
    assert top["construct_to_engine_ready_seconds"]["speedup"] >= 5.0
    assert top["resident_bytes"]["ratio"] >= 4.0

    rendered = table.render()
    emit("BENCH_placement", rendered)
    JSON_PATH.parent.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    BENCH_4_PATH.write_text(json.dumps(results, indent=2) + "\n")
