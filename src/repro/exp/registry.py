"""Experiment kernels and the runnable figure catalog.

Two layers:

* an :class:`ExperimentKernel` is the executable half of an experiment —
  how a spec expands into cells, how a *group* of cells is computed (one
  shard = one warm attack engine), and how stored metrics assemble back
  into the figure's result object. Kernels live in the analysis modules
  (each module exports a ``KERNELS`` dict) and are resolved lazily by
  name, so listing the catalog never imports the heavy modules;
* a :class:`FigureEntry` is a *runnable*: a human-facing name
  (``fig2`` … ``fig11``, ``appendix_a``), a one-line description, and a
  pointer to the module function that builds its default spec. The CLI's
  ``repro run --list`` and name validation both read this table, so
  unknown names fail up front with the full catalog instead of at
  dispatch time.

Specs reference kernels by name (``spec.experiment``), which is what
makes a spec self-contained data: ``repro run myspec.json`` with a new
grid over an existing kernel needs no new code.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exp.spec import ExperimentSpec, SpecError

Cell = Dict[str, Any]
Metrics = Dict[str, Any]


@dataclass(frozen=True)
class ExperimentKernel:
    """The executable definition behind ``spec.experiment``.

    ``expand`` maps a spec to its ordered cell list (groups must be
    contiguous in that order); ``group_key`` labels each cell's shard
    (cells sharing a key ride one warm engine and one warm-start chain);
    ``run_group`` computes JSON-native metrics for one shard, serially
    and deterministically — all parallelism lives in the runner, which is
    what keeps results bit-identical across worker counts; ``assemble``
    rebuilds the figure's result object from (cells, metrics);
    ``render`` turns that object into the figure's text artifact.
    ``group_cost`` is an optional scheduling hint (bigger = scheduled
    earlier when sharding); it never affects results.
    """

    name: str
    expand: Callable[[ExperimentSpec], List[Cell]]
    group_key: Callable[[ExperimentSpec, Cell], Any]
    run_group: Callable[[ExperimentSpec, Sequence[Cell]], List[Metrics]]
    assemble: Callable[[ExperimentSpec, Sequence[Cell], Sequence[Metrics]], Any]
    render: Callable[[Any], str]
    group_cost: Optional[Callable[[ExperimentSpec, Any, Sequence[Cell]], float]] = None


@dataclass(frozen=True)
class FigureEntry:
    """One runnable figure: name, description, and its default-spec builder."""

    name: str
    description: str
    module: str
    builder: str = "default_spec"


#: Kernel name -> defining module. Modules export ``KERNELS: dict``.
_KERNEL_MODULES: Dict[str, str] = {
    "fig2": "repro.analysis.fig2",
    "fig3": "repro.analysis.fig3",
    "fig4": "repro.analysis.fig4",
    "fig5": "repro.analysis.fig5",
    "fig6": "repro.analysis.fig5",
    "fig7": "repro.analysis.fig7",
    "fig8": "repro.analysis.fig8",
    "fig9": "repro.analysis.fig9",
    "fig10": "repro.analysis.fig10",
    "fig11": "repro.analysis.fig11",
    "appendix_a": "repro.analysis.appendix_a",
}

#: Runtime-registered kernels (tests, downstream extensions).
_EXTRA_KERNELS: Dict[str, ExperimentKernel] = {}

_FIGURES: Tuple[FigureEntry, ...] = (
    FigureEntry("fig2", "Tightness of lbAvail_si: Simple(1) vs worst-case "
                "attacks over (b, s, k)", "repro.analysis.fig2"),
    FigureEntry("fig3", "Combo DP sensitivity to the configured failure "
                "count k", "repro.analysis.fig3"),
    FigureEntry("fig4", "Subsystem orders n_x from the design catalog vs "
                "the paper's table", "repro.analysis.fig4"),
    FigureEntry("fig5", "Capacity-gap CDFs over n in [50, 800] at mu = 1",
                "repro.analysis.fig5"),
    FigureEntry("fig6", "Capacity-gap CDFs for the hard r = 5 strata with "
                "mu <= 5 and mu <= 10", "repro.analysis.fig5",
                "default_spec_fig6"),
    FigureEntry("fig7", "prAvail_rnd vs empirical Random availability "
                "(Monte-Carlo attack sweep)", "repro.analysis.fig7"),
    FigureEntry("fig8", "prAvail_rnd / b decay in k for s in 1..5",
                "repro.analysis.fig8"),
    FigureEntry("fig9a", "Headline Combo-vs-Random improvement tables at "
                "n = 71", "repro.analysis.fig9", "default_spec_a"),
    FigureEntry("fig9b", "Headline Combo-vs-Random improvement tables at "
                "n = 257", "repro.analysis.fig9", "default_spec_b"),
    FigureEntry("fig10", "Per-stratum breakdown of Combo placements "
                "(r = s = 3)", "repro.analysis.fig10"),
    FigureEntry("fig11", "Lemma-4 decay of Random availability at s = 1",
                "repro.analysis.fig11"),
    FigureEntry("appendix_a", "The s = 1 case: Simple(0, lambda0) vs "
                "Random, both poor", "repro.analysis.appendix_a"),
)

_FIGURES_BY_NAME: Dict[str, FigureEntry] = {entry.name: entry for entry in _FIGURES}


def register_kernel(kernel: ExperimentKernel) -> None:
    """Register an in-process kernel (tests / downstream extensions).

    Runtime registrations are process-local: sharded runs resolve kernels
    inside worker processes, so a kernel that should run with
    ``workers > 1`` must live in an importable module instead.
    """
    _EXTRA_KERNELS[kernel.name] = kernel


def kernel(name: str) -> ExperimentKernel:
    """Resolve an experiment kernel by name (lazy module import)."""
    extra = _EXTRA_KERNELS.get(name)
    if extra is not None:
        return extra
    module_path = _KERNEL_MODULES.get(name)
    if module_path is None:
        raise SpecError(
            f"unknown experiment kernel {name!r}; known: "
            f"{', '.join(sorted(set(_KERNEL_MODULES) | set(_EXTRA_KERNELS)))}"
        )
    module = importlib.import_module(module_path)
    return module.KERNELS[name]


def figure_names() -> Tuple[str, ...]:
    """Runnable figure names in catalog order."""
    return tuple(entry.name for entry in _FIGURES)


def describe_figures() -> List[Tuple[str, str]]:
    """(name, one-line description) pairs for ``--list`` output."""
    return [(entry.name, entry.description) for entry in _FIGURES]


def figure_spec(name: str, **overrides: Any) -> ExperimentSpec:
    """The default spec of a runnable figure (keyword overrides allowed)."""
    entry = _FIGURES_BY_NAME.get(name)
    if entry is None:
        raise SpecError(
            f"unknown figure {name!r}; known: {', '.join(figure_names())}"
        )
    module = importlib.import_module(entry.module)
    builder = getattr(module, entry.builder)
    return builder(**overrides)


def spec_from_payload(payload: Mapping[str, Any]) -> ExperimentSpec:
    """Validate a JSON payload into a spec with a resolvable kernel."""
    spec = ExperimentSpec.from_dict(payload)
    kernel(spec.experiment)  # fail fast on unknown kernels
    return spec
