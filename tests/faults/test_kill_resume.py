"""Satellite: resume-after-SIGKILL byte-identity (subprocess, torn writes).

A sharded experiment runs in a subprocess and is killed mid-append at a
randomized byte offset inside ``cells.jsonl`` (the torn-write fault
writes a strict prefix of one line, fsyncs, and ``os._exit``\\ s with the
SIGKILL-shaped code 137).  The resumed store must end byte-identical to
a run that was never interrupted.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import fig2
from repro.exp.runner import run_experiment
from repro.exp.store import RunStore
from repro.faults import FaultPlan
from repro.faults.soak import TORN_EXIT, _python_env


def _spec():
    return fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=4)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


@pytest.mark.parametrize("seed,index", [(1, 3), (2, 5), (3, 8)])
def test_sigkill_mid_append_then_resume_is_byte_identical(
    tmp_path, seed, index
):
    spec = _spec()
    spec_path = str(tmp_path / "spec.json")
    _write(spec_path, spec.canonical_json())
    # Tear the run at cell `index`: the decision hash (seeded) picks the
    # byte offset inside that line, so each seed kills at a different
    # randomized mid-line position.
    plan = FaultPlan.build([{
        "site": "store.commit", "kind": "torn",
        "when": {"index": index, "hit": index}, "times": 1,
    }], seed=seed)
    plan_path = str(tmp_path / "plan.json")
    _write(plan_path, plan.canonical_json())
    store_root = str(tmp_path / "store")

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", spec_path,
         "--store", store_root, "--workers", "2", "--chaos", plan_path],
        capture_output=True, text=True, env=_python_env(),
    )
    assert proc.returncode == TORN_EXIT, proc.stderr

    store = RunStore(store_root)
    cells_path = store.cells_file(spec)
    with open(cells_path, "rb") as handle:
        torn_bytes = handle.read()
    # The kill happened mid-line: `index` complete lines plus a strict,
    # non-empty prefix of line `index`.
    assert torn_bytes.count(b"\n") == index
    assert not torn_bytes.endswith(b"\n")

    resumed = run_experiment(spec, store=store, resume=True, workers=2)
    assert resumed.complete
    # The surviving prefix is served; only the shard straddling the torn
    # line recomputes its already-stored cells.
    assert resumed.loaded + resumed.recomputed == index

    reference_store = RunStore(str(tmp_path / "reference"))
    reference = run_experiment(spec, store=reference_store, workers=2)
    with open(cells_path, "rb") as handle:
        resumed_bytes = handle.read()
    with open(reference_store.cells_file(spec), "rb") as handle:
        reference_bytes = handle.read()
    assert resumed_bytes == reference_bytes
    assert resumed.result() == reference.result()


def test_torn_offsets_differ_across_seeds(tmp_path):
    """The randomized mid-line kill offsets actually vary by seed."""
    spec = _spec()
    spec_path = str(tmp_path / "spec.json")
    _write(spec_path, spec.canonical_json())
    sizes = set()
    for seed in (10, 11, 12):
        plan = FaultPlan.build([{
            "site": "store.commit", "kind": "torn",
            "when": {"index": 2, "hit": 2}, "times": 1,
        }], seed=seed)
        plan_path = str(tmp_path / f"plan{seed}.json")
        _write(plan_path, plan.canonical_json())
        store_root = str(tmp_path / f"store{seed}")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", spec_path,
             "--store", store_root, "--workers", "2",
             "--chaos", plan_path],
            capture_output=True, text=True, env=_python_env(),
        )
        assert proc.returncode == TORN_EXIT, proc.stderr
        with open(RunStore(store_root).cells_file(spec), "rb") as handle:
            sizes.add(len(handle.read()))
    assert len(sizes) > 1


def test_failed_commit_keeps_the_prefix_and_resume_is_byte_identical(
    tmp_path,
):
    """An injected ``store.commit`` error propagates like a failed write;
    the lines already written stay a prefix and ``--resume`` heals it."""
    from repro import faults

    spec = _spec()
    reference_store = RunStore(str(tmp_path / "reference"))
    run_experiment(spec, store=reference_store, workers=1)
    with open(reference_store.cells_file(spec), "rb") as handle:
        reference_bytes = handle.read()

    # Cell 6 sits inside the shard cells[5:8]: cell 5 is written, the
    # commit of cell 6 fails.
    faults.configure(FaultPlan.build([{
        "site": "store.commit", "kind": "error", "when": {"index": 6},
    }]))
    store = RunStore(str(tmp_path / "store"))
    with pytest.raises(faults.InjectedFault):
        run_experiment(spec, store=store, workers=1)
    with open(store.cells_file(spec), "rb") as handle:
        prefix = handle.read()
    assert prefix.count(b"\n") == 6
    assert reference_bytes.startswith(prefix)

    faults.configure(None)
    resumed = run_experiment(spec, store=store, resume=True, workers=1)
    assert resumed.complete
    assert (resumed.loaded, resumed.recomputed) == (5, 1)
    with open(store.cells_file(spec), "rb") as handle:
        assert handle.read() == reference_bytes
