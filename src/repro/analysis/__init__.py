"""Figure/table generators: one module per experiment in the paper.

Each module builds its experiment's spec (``figN.default_spec(...)``) and
registers the kernel that computes it (``KERNELS``); it never runs one. A
figure runs as ``run_experiment(figN.default_spec(...)).result()`` (see
:mod:`repro.exp.runner`) or as ``repro run <fig>``, and its result has a
``render()`` text view. The catalog renders are recorded in
``benchmarks/output/`` for side-by-side comparison with the paper;
``tests/exp/test_catalog_parity.py`` reproduces them byte for byte and
checks each figure's paper trend.

The generator modules load on first access: a ``repro run <fig>``
process imports its own figure's module, not all eleven (~35 ms).
"""

import importlib

__all__ = [
    "appendix_a",
    "common",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
