"""Layering gate: the analysis layer builds specs, it never runs them.

Each figure module may depend on :mod:`repro.exp.spec` and
:mod:`repro.exp.registry`; only :mod:`repro.exp.runner` executes a spec.
A helper that ran specs from inside ``repro.analysis`` would import the
runner, so importing every analysis module in a fresh interpreter must
leave it unloaded.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_analysis_modules_never_import_the_runner():
    code = (
        "import importlib, sys\n"
        "import repro.analysis as analysis\n"
        "for name in analysis.__all__:\n"
        "    importlib.import_module(f'repro.analysis.{name}')\n"
        "assert 'repro.exp.runner' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
