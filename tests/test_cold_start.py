"""Cold-start gate: the benchmarked ``repro`` invocations never import numpy.

numpy costs ~0.15 s of interpreter start-up and saves only milliseconds
at the sizes these invocations serve, so it is loaded only where it pays
(see :mod:`repro.util.lazynumpy`). Each case runs in a fresh interpreter
with an audit hook that reports any attempt to import numpy — from the
main process and from forked pool workers, which inherit the hook.

Without the native backing the numpy gain rung is the fastest kernel
left, so the gate applies only where native loads.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core import native
from repro.core.kernels import numpy_available

pytestmark = pytest.mark.skipif(
    not native.available(), reason="numpy is the kernel rung without native"
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
MARKER = "numpy-import-attempted"

# Audit hook first, then the CLI; with no arguments the case is the bare
# import of ``repro.cli``.
PRELUDE = f"""
import os, sys

def hook(event, args):
    if event == "import" and args[0].split(".")[0] == "numpy":
        os.write(2, b"{MARKER} " + args[0].encode() + b"\\n")

sys.addaudithook(hook)
import repro.cli
sys.exit(repro.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0)
"""

TINY_EXACT_SPEC = {
    "experiment": "fig2",
    "axes": {"b": [26, 52], "s": [2, 3]},
    "constants": {"b_cap": 52, "effort": "exact", "k_max": 3,
                  "n": 13, "r": 3, "x": 1},
}


def run_cold(args, cwd, prelude=PRELUDE):
    # Kernel pins and grid knobs would change what is measured; the
    # native build location and compiler stay as configured.
    keep = ("REPRO_NATIVE_CACHE", "REPRO_CC")
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_") or key in keep
    }
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-c", prelude, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def spec_case(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY_EXACT_SPEC))
    return ["run", str(path), "--workers", "2", "--store",
            str(tmp_path / "store")]


CASES = {
    "import": lambda tmp_path: [],
    "run-fig4": lambda tmp_path: ["run", "fig4", "--no-store", "--workers", "1"],
    "simulate": lambda tmp_path: ["simulate", "--events", "200"],
    "run-exact-spec": spec_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_invocation_never_imports_numpy(case, tmp_path):
    proc = run_cold(CASES[case](tmp_path), tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert MARKER not in proc.stderr, proc.stderr


@pytest.mark.skipif(not numpy_available(), reason="needs numpy")
def test_gate_trips_on_a_numpy_import(tmp_path):
    """The hook is live: a process that does import numpy is reported."""
    prelude = PRELUDE.replace("import repro.cli", "import repro.cli, numpy")
    proc = run_cold([], tmp_path, prelude=prelude)
    assert proc.returncode == 0, proc.stderr
    assert MARKER in proc.stderr
