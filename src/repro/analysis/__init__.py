"""Figure/table generators: one module per experiment in the paper.

Each ``figN.generate(...)`` returns a structured result with a ``render()``
text view; the ``benchmarks/`` suite times the generators and tees their
renders into ``bench_output.txt`` for side-by-side comparison with the
paper (see EXPERIMENTS.md for the recorded comparison).

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
