"""Perf record for the mmap placement loader (BENCH_6.json).

**mmap scale** — a b = 1e7 placement artifact loaded to engine-ready
(placement constructed, row buffer addressable, spot row reads) in a
fresh subprocess, eagerly vs ``mmap=True``, recording wall clock and
peak resident memory. The mmap arm must come in below the eager arm's
resident memory: the eager path holds a 120 MB heap copy of the rows,
the mapped path pages in only what is touched. Spot reads must agree
between the two arms at every size.

Run (writes the repo-top-level ``BENCH_6.json``)::

    PYTHONPATH=src python benchmarks/bench_native.py

CI smoke (small sizes, gates only, no BENCH_6.json)::

    PYTHONPATH=src python benchmarks/bench_native.py --smoke
"""

import argparse
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

from repro.core.kernels import numpy_available

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_6.json"
OUTPUT_DIR = pathlib.Path(__file__).resolve().parent / "output"

#: mmap-scale instance: 10 million objects, a 120 MB row buffer.
MMAP_N, MMAP_R, MMAP_B = 512, 3, 10_000_000
SPOT_ROWS = 1024

SMOKE_MMAP_B = 200_000


def synth_rows(b, n, r):
    """Valid sorted/distinct rows at scale, vectorized (numpy required)."""
    import numpy as np

    starts = (np.arange(b, dtype=np.int64) * 7919) % (n - r)
    return (starts[:, None] + np.arange(r, dtype=np.int64)[None, :]).astype(
        np.int32
    )


def _peak_rss_kb():
    """This process's own peak RSS in KB.

    ``getrusage`` is a trap here: on Linux a forked child's maxrss folds
    in the parent's pre-exec address space, so a benchmark parent holding
    the synthesized rows would inflate every child identically. VmHWM
    comes from the post-exec mm and only counts what the child itself
    touched.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # pragma: no cover - non-procfs platforms
        pass
    import resource  # pragma: no cover - fallback, coarser semantics

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _measure_child(mode, path):
    """Subprocess arm: load to engine-ready, report wall + peak RSS."""
    from repro.core.artifact import load_placement

    start = time.perf_counter()
    placement = load_placement(path, validate=False, mmap=(mode == "mmap"))
    rows = placement.replica_array()
    load_seconds = time.perf_counter() - start
    rng = random.Random(3)
    spot = 0
    for _ in range(SPOT_ROWS):
        obj = rng.randrange(placement.b)
        spot ^= rows[obj * placement.r]
    seconds = time.perf_counter() - start
    peak_kb = _peak_rss_kb()
    print(json.dumps({
        "mode": mode,
        "b": placement.b,
        "load_seconds": round(load_seconds, 4),
        "engine_ready_seconds": round(seconds, 4),
        "max_rss_kb": peak_kb,
        "spot_xor": spot,
    }))


def _measure(mode, path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        pathlib.Path(__file__).resolve().parent.parent / "src"
    )
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--_measure", mode, path],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def mmap_scale(b, n, r, report, gate_rss):
    from repro.core.artifact import save_npz
    from repro.core.placement import Placement

    rows = synth_rows(b, n, r)
    placement = Placement.from_arrays(n, rows, strategy="bench", validate=False)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "p.npz")
        start = time.perf_counter()
        save_npz(placement, path)
        save_seconds = time.perf_counter() - start
        eager = _measure("eager", path)
        mapped = _measure("mmap", path)
    if eager["spot_xor"] != mapped["spot_xor"]:
        print("FAIL: mmap spot reads diverged from eager", file=sys.stderr)
        return 1
    report["mmap_scale"] = {
        "n": n, "r": r, "b": b,
        "artifact_bytes": 4 * b * r,
        "save_seconds": round(save_seconds, 4),
        "spot_rows": SPOT_ROWS,
        "eager": {k: eager[k] for k in (
            "load_seconds", "engine_ready_seconds", "max_rss_kb"
        )},
        "mmap": {k: mapped[k] for k in (
            "load_seconds", "engine_ready_seconds", "max_rss_kb"
        )},
        "rss_ratio": round(eager["max_rss_kb"] / mapped["max_rss_kb"], 2),
        "rss_gated": gate_rss,
    }
    if gate_rss and mapped["max_rss_kb"] >= eager["max_rss_kb"]:
        print(
            f"FAIL: mmap engine-ready RSS {mapped['max_rss_kb']} KB not "
            f"below eager baseline {eager['max_rss_kb']} KB",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes, gates only, no BENCH_6.json",
    )
    parser.add_argument(
        "--_measure", nargs=2, metavar=("MODE", "PATH"), default=None,
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    if args._measure is not None:
        _measure_child(*args._measure)
        return 0

    if not numpy_available():
        print("SKIP: numpy unavailable; the artifact writer needs it")
        return 0
    report = {}
    if args.smoke:
        # Tiny artifact: only correctness gates; the interpreter
        # baseline swamps any RSS signal at this size.
        status = mmap_scale(
            SMOKE_MMAP_B, MMAP_N, MMAP_R, report, gate_rss=False
        )
        print(json.dumps(report, indent=1))
        return status

    status = mmap_scale(MMAP_B, MMAP_N, MMAP_R, report, gate_rss=True)
    text = json.dumps(report, indent=1)
    print(text)
    if status == 0:
        BENCH_PATH.write_text(text + "\n")
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / "BENCH_native.json").write_text(text + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
