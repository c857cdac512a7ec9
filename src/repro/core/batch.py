"""Batched worst-case attack engine: one placement, many (k, s, effort) cells.

Every simulation figure evaluates the same placement under a grid of
failure scenarios — Fig. 2 sweeps (s, k) per object count, Fig. 7 sweeps
k per Monte-Carlo sample, the cluster simulator re-attacks its
population after every batch of churn. Attacking cell-by-cell rebuilds
the incidence structure for every cell and forgets everything the
previous search learned. One :func:`batch_attack` call instead builds
one engine and runs the whole grid on it:

* :class:`AttackEngine` holds the CSR
  :class:`~repro.core.kernels.Incidence` and one gain kernel per
  fatality threshold ``s`` (all on one pinned backing). The incidence
  ingests the placement's cached CSR arrays zero-copy (see
  :meth:`Placement.node_csr`), so engine construction does no
  per-object set walking;
* each threshold group is ordered by ascending ``k`` and chains
  incumbents — the k-attack's failure set seeds the (k+1)-search
  (``warm_start``), which both speeds local search and tightens
  branch-and-bound pruning.

Nothing is kept between calls: every caller builds the engine it uses.
A caller that re-attacks one mutating population (the lifetime
simulator) keeps its own engine current with
:meth:`AttackEngine.apply_delta` instead.

The engine is serial and single-process: every threshold group runs as
one warm chain, so the answer for a grid never depends on how many
processes computed it. Process parallelism lives one level up, in the
experiment runner's shard pool (:mod:`repro.exp.runner`).

Attacks are deterministic: each cell's restart randomness derives from
``(seed, s, k, effort)`` via :func:`repro.util.rng.derive_rng`, so the
same grid replays bit-for-bit regardless of cell order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.adversary import AttackResult, best_attack
from repro.core.kernels import (
    GainKernel,
    Incidence,
    make_kernel,
    resolve_gain_backing,
)
from repro.core.placement import Placement
from repro.util.rng import derive_rng

_EFFORTS = ("fast", "auto", "exact")


@dataclass(frozen=True)
class AttackCell:
    """One evaluation request: fail ``k`` nodes, objects die at ``s`` losses."""

    k: int
    s: int
    effort: str = "auto"


class AttackEngine:
    """Warm per-placement attack state: incidence and per-threshold kernels.

    Bound to one resolved gain backing, pinned at construction.
    """

    def __init__(
        self,
        placement: Placement,
        gain_backing: Optional[str] = None,
    ) -> None:
        self.placement = placement
        # Pin the gain backing at construction so lazily built kernels
        # cannot drift from the backing this engine started on.
        self.gain_backing = resolve_gain_backing(gain_backing)
        self.incidence = Incidence(placement)
        self._kernels: Dict[int, GainKernel] = {}
        obs.count("engine.builds")

    def apply_delta(
        self,
        added_objects: Sequence[Sequence[int]] = (),
        removed_objects: Sequence[int] = (),
        moved_replicas: Sequence[Tuple[int, int, int]] = (),
    ) -> Placement:
        """Mutate the engine's placement in place and stay warm.

        ``added_objects`` holds replica node sets to append;
        ``removed_objects`` holds current object ids to drop;
        ``moved_replicas`` holds ``(id, old, new)`` single-replica moves
        that keep the object's id. The id semantics (moves first, then
        swap-with-last removals, then appends) are those of
        :meth:`~repro.core.kernels.Incidence.apply_delta`: the first
        delta copies the placement's CSR into a padded layout once, after
        which a delta costs O(r) per changed replica; kernels rebind in
        place. Returns the resulting placement.
        """
        self.placement = self.incidence.apply_delta(
            added_objects, removed_objects, moved_replicas
        )
        for kernel in self._kernels.values():
            kernel.rebind()
        return self.placement

    def kernel(self, s: int) -> GainKernel:
        """The shared damage kernel for threshold ``s`` (built once)."""
        kernel = self._kernels.get(s)
        if kernel is None:
            kernel = make_kernel(
                self.placement, s,
                incidence=self.incidence, gain_backing=self.gain_backing,
            )
            self._kernels[s] = kernel
        return kernel

    def attack(
        self,
        cell: AttackCell,
        seed: int = 0,
        rng: Optional[random.Random] = None,
        warm_start: Optional[Sequence[int]] = None,
    ) -> AttackResult:
        """Run one attack cell against the warm kernel state.

        With ``rng=None`` the cell's generator derives from
        ``(seed, s, k, effort)``; a caller-managed ``rng`` is used as is.
        """
        _validate_cells(self.placement, (cell,))
        warm = tuple(warm_start) if warm_start is not None else None
        cell_rng = rng if rng is not None else derive_rng(
            seed, "batch", cell.s, cell.k, cell.effort
        )
        with obs.span(
            "engine.attack", k=cell.k, s=cell.s, effort=cell.effort
        ):
            return best_attack(
                self.placement,
                cell.k,
                cell.s,
                effort=cell.effort,
                rng=cell_rng,
                kernel=self.kernel(cell.s),
                warm_start=warm,
            )


def _validate_cells(placement: Placement, cells: Sequence[AttackCell]) -> None:
    for cell in cells:
        if not 1 <= cell.k < placement.n:
            raise ValueError(f"need 1 <= k < n={placement.n}, got k={cell.k}")
        if not 1 <= cell.s <= placement.r:
            raise ValueError(f"need 1 <= s <= r={placement.r}, got s={cell.s}")
        if cell.effort not in _EFFORTS:
            raise ValueError(
                f"unknown effort {cell.effort!r}; use one of {_EFFORTS}"
            )


def batch_attack(
    placement: Placement,
    cells: Iterable[AttackCell],
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> List[AttackResult]:
    """Evaluate a grid of attack cells; results align with the input order.

    One engine is built for the call and shared by every threshold
    group. Cells group by threshold ``s``; each group runs in ascending
    ``k`` as one warm-start chain. ``rng`` overrides the per-cell derived
    generators with one shared caller-managed generator (used by
    single-cell wrappers that expose an ``rng`` parameter).
    """
    cell_list = list(cells)
    _validate_cells(placement, cell_list)
    groups: Dict[int, List[Tuple[int, AttackCell]]] = {}
    for index, cell in enumerate(cell_list):
        groups.setdefault(cell.s, []).append((index, cell))
    engine = AttackEngine(placement)
    results: List[Optional[AttackResult]] = [None] * len(cell_list)
    for _s, group in sorted(groups.items()):
        group.sort(key=lambda item: (item[1].k, item[0]))
        warm: Optional[Tuple[int, ...]] = None
        for index, cell in group:
            attack = engine.attack(cell, seed=seed, rng=rng, warm_start=warm)
            warm = attack.nodes
            results[index] = attack
    return results  # type: ignore[return-value]

