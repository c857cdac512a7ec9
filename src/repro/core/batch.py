"""Batched worst-case attack engine: one placement, many (k, s, effort) cells.

Every simulation figure evaluates the same placement under a grid of
failure scenarios — Fig. 2 sweeps (s, k) per object count, Fig. 7 sweeps
k per Monte-Carlo sample, the cluster simulator re-attacks snapshots of
the same population. Attacking cell-by-cell rebuilds the incidence
structure for every cell and forgets everything the previous search
learned. This engine instead keeps a *warm, persistent pipeline*:

* :class:`AttackEngine` holds the CSR
  :class:`~repro.core.kernels.Incidence`, one gain kernel per fatality
  threshold ``s`` (all on one pinned backing), and a bounded memo of
  finished attacks. The incidence ingests the placement's cached CSR
  arrays zero-copy (see
  :meth:`Placement.node_csr`), so engine construction does no per-object
  set walking, and the cache key — :meth:`Placement.fingerprint` — is a
  single sha256 over the raw row buffer. Engines are
  cached per process keyed by that fingerprint, so repeated
  ``batch_attack`` calls — and even *distinct but structurally equal*
  placement objects, e.g. fresh cluster snapshots of an unchanged
  population — reuse kernel state instead of rebuilding it;
* each threshold group is ordered by ascending ``k`` and chains
  incumbents — the k-attack's failure set seeds the (k+1)-search
  (``warm_start``), which both speeds local search and tightens
  branch-and-bound pruning;
* the attack memo is keyed by (cell, seed, warm chain) under the
  placement fingerprint, so identical queries (same structure, same cell,
  same derived randomness) return the finished result without searching.
  Memoization is semantically invisible: results are deterministic
  functions of the key. Caller-managed ``rng`` bypasses it since the
  generator state is not part of the key.

The engine is serial and single-process: every threshold group runs as
one warm chain, so the answer for a grid never depends on how many
processes computed it. Process parallelism lives one level up, in the
experiment runner's shard pool (:mod:`repro.exp.runner`), whose workers
each keep their own engine cache.

Attacks are deterministic: each cell's restart randomness derives from
``(seed, s, k, effort)`` via :func:`repro.util.rng.derive_rng`, so the
same grid replays bit-for-bit regardless of cell order or cache hits.
"""

from __future__ import annotations

import random
from collections import OrderedDict
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

#: Engines kept warm per process (LRU by placement fingerprint + backing).
#: Long sweeps over many distinct placements would otherwise accumulate
#: engines — and their incidence structures — without bound; the cap keeps
#: process RSS proportional to the recent working set.
_ENGINE_CACHE_CAP = 8
#: Finished attacks remembered per engine (LRU).
_MEMO_CAP = 1024

_ENGINES: "OrderedDict[Tuple[str, str], AttackEngine]" = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0}


@dataclass(frozen=True)
class AttackCell:
    """One evaluation request: fail ``k`` nodes, objects die at ``s`` losses."""

    k: int
    s: int
    effort: str = "auto"


def attack_cache_stats() -> Dict[str, int]:
    """Process-wide memo counters plus the number of warm engines."""
    return {**_CACHE_STATS, "engines": len(_ENGINES)}


def clear_attack_caches() -> None:
    """Drop every warm engine and memoized result (tests, memory pressure)."""
    _ENGINES.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


class AttackEngine:
    """Warm per-placement attack state: incidence, kernels, result memo.

    Bound to one resolved gain backing. Use :func:`engine_for` to get
    the process-cached instance instead of constructing directly.
    """

    def __init__(
        self,
        placement: Placement,
        gain_backing: Optional[str] = None,
    ) -> None:
        self.placement = placement
        # Pin the gain backing at construction so lazily built kernels
        # cannot drift from the backing this engine was cached under.
        self.gain_backing = resolve_gain_backing(gain_backing)
        self.incidence = Incidence(placement)
        self._kernels: Dict[int, GainKernel] = {}
        self._memo: "OrderedDict[tuple, AttackResult]" = OrderedDict()

    def apply_delta(
        self,
        added_objects: Sequence[Sequence[int]] = (),
        removed_objects: Sequence[int] = (),
    ) -> Placement:
        """Mutate the engine's placement in place and stay warm.

        ``added_objects`` holds replica node sets to append;
        ``removed_objects`` holds current object ids to drop, under the
        swap-with-last id semantics of
        :meth:`~repro.core.kernels.Incidence.apply_delta` (the first
        delta copies the placement's CSR into a padded layout once, after
        which a delta costs O(changed replicas)); kernels rebind in place;
        the attack memo is cleared (results describe the old structure).
        Returns the resulting placement.

        A mutated engine no longer matches the fingerprint it may have
        been cached under, so it detaches from the :func:`engine_for`
        cache — delta engines are private to their driver (the lifetime
        simulator), while fingerprint lookups keep returning engines that
        describe what they claim.
        """
        self._detach()
        self.placement = self.incidence.apply_delta(
            added_objects, removed_objects
        )
        for kernel in self._kernels.values():
            kernel.rebind()
        self._memo.clear()
        return self.placement

    def _detach(self) -> None:
        """Drop this engine from the process cache (stale fingerprint key)."""
        for key in [k for k, eng in _ENGINES.items() if eng is self]:
            del _ENGINES[key]

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

    def memo_get(self, key: tuple) -> Optional[AttackResult]:
        """LRU lookup in the attack memo (refreshes recency on hit)."""
        cached = self._memo.get(key)
        if cached is not None:
            self._memo.move_to_end(key)
        return cached

    def memo_put(self, key: tuple, result: AttackResult) -> None:
        """Insert into the attack memo, evicting the LRU tail past the cap."""
        self._memo[key] = result
        while len(self._memo) > _MEMO_CAP:
            self._memo.popitem(last=False)

    def attack(
        self,
        cell: AttackCell,
        seed: int = 0,
        rng: Optional[random.Random] = None,
        warm_start: Optional[Sequence[int]] = None,
    ) -> AttackResult:
        """Run (or recall) one attack cell against the warm kernel state.

        With ``rng=None`` the cell's generator derives from
        ``(seed, s, k, effort)``, making the result a pure function of the
        memo key — eligible for caching. A caller-managed ``rng`` carries
        hidden state, so those calls always search.
        """
        _validate_cells(self.placement, (cell,))
        use_cache = rng is None
        warm = tuple(warm_start) if warm_start is not None else None
        key = (cell.k, cell.s, cell.effort, seed, warm)
        if use_cache:
            cached = self.memo_get(key)
            if cached is not None:
                _CACHE_STATS["hits"] += 1
                obs.count("attack.memo.hits")
                return cached
            _CACHE_STATS["misses"] += 1
            obs.count("attack.memo.misses")
        cell_rng = rng if rng is not None else derive_rng(
            seed, "batch", cell.s, cell.k, cell.effort
        )
        with obs.span(
            "engine.attack", k=cell.k, s=cell.s, effort=cell.effort
        ):
            result = best_attack(
                self.placement,
                cell.k,
                cell.s,
                effort=cell.effort,
                rng=cell_rng,
                kernel=self.kernel(cell.s),
                warm_start=warm,
            )
        if use_cache:
            self.memo_put(key, result)
        return result


def _cache_engine(key: Tuple[str, str], engine: AttackEngine) -> None:
    """Insert a warm engine, evicting (and detaching) past the LRU cap."""
    _ENGINES[key] = engine
    while len(_ENGINES) > _ENGINE_CACHE_CAP:
        _key, evicted = _ENGINES.popitem(last=False)
        # Detach any aliased keys so the evicted engine is fully released
        # (a half-evicted engine would pin its incidence via the alias).
        evicted._detach()
        obs.count("engine.cache.evictions")


def engine_for(placement: Placement) -> AttackEngine:
    """The process-cached warm engine for (placement structure, backing).

    Structurally equal placements (same fingerprint) share one engine even
    when they are distinct objects — the engine's own placement stands in
    for all of them, which is sound because attacks depend only on
    structure and node ids are preserved by equality. The resolved gain
    backing is part of the key, so re-pinning
    ``REPRO_GAIN_BACKING`` mid-process builds a fresh engine instead of
    silently reusing kernels of the previous backing.
    """
    backing = resolve_gain_backing()
    key = (placement.fingerprint(), backing)
    engine = _ENGINES.get(key)
    if engine is None:
        obs.count("engine.cache.misses")
        engine = AttackEngine(placement, gain_backing=backing)
        obs.count("engine.builds")
        _cache_engine(key, engine)
        return engine
    _ENGINES.move_to_end(key)
    obs.count("engine.cache.hits")
    return engine


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


def _attack_group(
    placement: Placement,
    group: Sequence[Tuple[int, AttackCell]],
    seed: int,
    rng: Optional[random.Random] = None,
) -> List[Tuple[int, AttackResult]]:
    """Attack one threshold group (pre-sorted by k), chaining incumbents."""
    engine = engine_for(placement)
    results: List[Tuple[int, AttackResult]] = []
    warm: Optional[Tuple[int, ...]] = None
    for index, cell in group:
        attack = engine.attack(cell, seed=seed, rng=rng, warm_start=warm)
        warm = attack.nodes
        results.append((index, attack))
    return results


def batch_attack(
    placement: Placement,
    cells: Iterable[AttackCell],
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> List[AttackResult]:
    """Evaluate a grid of attack cells; results align with the input order.

    Cells group by threshold ``s``; each group runs in ascending ``k`` as
    one warm-start chain. ``rng`` overrides the per-cell derived
    generators with one shared caller-managed generator (used by
    single-cell wrappers that expose an ``rng`` parameter) and disables
    memoization.
    """
    cell_list = list(cells)
    _validate_cells(placement, cell_list)
    groups: Dict[int, List[Tuple[int, AttackCell]]] = {}
    for index, cell in enumerate(cell_list):
        groups.setdefault(cell.s, []).append((index, cell))
    results: List[Optional[AttackResult]] = [None] * len(cell_list)
    for _s, group in sorted(groups.items()):
        group.sort(key=lambda item: (item[1].k, item[0]))
        for index, attack in _attack_group(placement, group, seed, rng=rng):
            results[index] = attack
    return results  # type: ignore[return-value]

