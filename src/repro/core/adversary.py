"""Worst-case failure adversaries: choosing k nodes to kill the most objects.

``Avail(pi)`` (paper Definition 1) minimizes surviving objects over all
C(n, k) failure sets. Finding the minimizing set is a max-coverage-style
problem (NP-hard in general), so this module offers a ladder of engines:

* :class:`ExhaustiveAdversary` — exact, enumerates every k-subset;
  only sensible when ``C(n, k)`` is small.
* :class:`BranchAndBoundAdversary` — exact, prunes with a deficit-based
  optimistic bound and a strong heuristic incumbent; practical far beyond
  plain enumeration, with an optional node budget after which it degrades
  gracefully into an anytime heuristic (flagged via ``exact=False``).
* :class:`GreedyAdversary` — picks nodes one at a time maximizing resulting
  damage; fast, no optimality guarantee.
* :class:`LocalSearchAdversary` — greedy + steepest-descent swaps with
  random restarts; the workhorse for the paper-scale simulations (Figs. 2
  and 7), where it empirically matches exact search (see
  ``bench_ablation_adversary``).

All engines report *damage* (failed objects); availability is ``b - damage``.
Heuristic engines under-estimate worst-case damage, therefore over-estimate
availability — callers that need a guaranteed direction use the ``exact``
flag on the result.

Damage evaluation is delegated to the gain kernel of
:mod:`repro.core.kernels` (its backing selected via
``REPRO_GAIN_BACKING``); every engine accepts a prebuilt ``kernel`` so
grids of attacks share one incidence structure (see
:mod:`repro.core.batch`), and heuristic engines accept a ``warm_start``
failure set so a k-attack can seed the k+1 search.

Per-move cost of the gain kernel (n nodes, b objects, r replicas; one
"polish position" = remove + best-addition + re-add): ``best_addition``
is an O(n) table argmax, a polish position O(r^2 b / n + n), a damage
query O(1). The two backings share these costs and differ only in
constants: ``native`` fuses a whole polish pass (and a batch of polish
chains) into one foreign call, and a whole branch and bound into one
more, with the deficit bound maintained incrementally (O(s n) per tree
node instead of an O(b) rescan); ``python`` runs the generic loops of
:class:`~repro.core.kernels.GainKernel` and the python
branch-and-bound DFS :func:`_search_tree`: the executable
reference. All backings return identical results — search trajectories
(tie-breaks included) are backing-independent, and ``evaluations``
counts candidate damage evaluations the same way everywhere, so
:class:`AttackResult` values can be compared across backings
bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.kernels import GainKernel, make_kernel
from repro.core.placement import Placement
from repro.util.combinatorics import binom

@dataclass(frozen=True)
class AttackResult:
    """The outcome of a worst-case search."""

    nodes: Tuple[int, ...]  # the failure set found
    damage: int  # objects killed by it
    exact: bool  # True iff this is provably the maximum damage
    evaluations: int  # damage evaluations spent (effort measure)

    def availability(self, b: int) -> int:
        return b - self.damage


def damage(placement: Placement, failed_nodes: Iterable[int], s: int) -> int:
    """Number of objects with at least ``s`` replicas on ``failed_nodes``."""
    failed = frozenset(failed_nodes)
    count = 0
    for nodes in placement.replica_sets:
        if len(nodes & failed) >= s:
            count += 1
    return count


def _bind_kernel(
    placement: Placement, s: int, kernel: Optional[GainKernel]
) -> GainKernel:
    """The kernel to search with; validates a caller-supplied one."""
    if kernel is None:
        return make_kernel(placement, s)
    if kernel.placement is not placement:
        raise ValueError("kernel was built for a different placement")
    if kernel.s != s:
        raise ValueError(f"kernel was built for s={kernel.s}, attack wants s={s}")
    return kernel


def _check_k(placement: Placement, k: int) -> None:
    """Reject failure-set sizes outside ``[0, n]`` before any kernel call."""
    if not 0 <= k <= placement.n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={placement.n}")


def _check_budget(max_nodes: Optional[int]) -> None:
    """Reject a negative tree budget (``None`` is the unlimited one)."""
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(
            f"max_nodes must be >= 0 or None (unlimited), got {max_nodes}"
        )


class ExhaustiveAdversary:
    """Exact search by full enumeration; guarded by a subset-count limit."""

    def __init__(self, max_subsets: int = 2_000_000) -> None:
        self.max_subsets = max_subsets

    def attack(
        self,
        placement: Placement,
        k: int,
        s: int,
        kernel: Optional[GainKernel] = None,
    ) -> AttackResult:
        _check_k(placement, k)
        n = placement.n
        total = binom(n, k)
        if total > self.max_subsets:
            raise ValueError(
                f"C({n},{k}) = {total} exceeds the exhaustive limit "
                f"{self.max_subsets}; use BranchAndBoundAdversary"
            )
        model = _bind_kernel(placement, s, kernel)
        counting = obs.metrics_enabled()
        best_nodes: Tuple[int, ...] = ()
        best_damage = -1
        evaluations = 0
        moves = 0  # add/remove pairs: every tree edge is one of each
        chosen: List[int] = []

        def recurse(start: int, hits) -> None:
            nonlocal best_nodes, best_damage, evaluations, moves
            if len(chosen) == k:
                evaluations += 1
                d = model.damage_of(hits)
                if d > best_damage:
                    best_damage = d
                    best_nodes = tuple(chosen)
                return
            remaining = k - len(chosen)
            for node in range(start, n - remaining + 1):
                chosen.append(node)
                hits = model.add_node(hits, node)
                moves += 1
                recurse(node + 1, hits)
                hits = model.remove_node(hits, node)
                chosen.pop()

        recurse(0, model.empty_hits())
        if counting and moves:
            obs.count("kernel.node_adds", moves)
            obs.count("kernel.node_removes", moves)
        return AttackResult(
            nodes=best_nodes, damage=best_damage, exact=True, evaluations=evaluations
        )


class GreedyAdversary:
    """Myopically add the node that maximizes resulting damage."""

    def attack(
        self,
        placement: Placement,
        k: int,
        s: int,
        kernel: Optional[GainKernel] = None,
    ) -> AttackResult:
        _check_k(placement, k)
        model = _bind_kernel(placement, s, kernel)
        hits = model.empty_hits()
        chosen: List[int] = []
        evaluations = 0
        for _ in range(k):
            node, _damage_after = model.best_addition(hits, banned=chosen)
            evaluations += model.n - len(chosen)
            chosen.append(node)
            hits = model.add_node(hits, node)
        if obs.metrics_enabled() and k:
            obs.count("kernel.node_adds", k)
        return AttackResult(
            nodes=tuple(sorted(chosen)),
            damage=model.damage_of(hits),
            exact=False,
            evaluations=evaluations,
        )


class LocalSearchAdversary:
    """Greedy seed + steepest swap descent, with random restarts.

    Each sweep tries every (remove u, add v) swap and takes the best strict
    improvement, iterating to a local optimum. Restarts re-seed from random
    k-subsets.

    Determinism: every ``attack()`` call draws from a *fresh*
    ``random.Random(seed)``, so results depend only on the arguments —
    never on how many attacks the instance ran before (the old shared
    default generator made results call-order dependent). Passing ``rng``
    instead opts back into caller-managed generator state.

    The polish chains (greedy, warm-start, every restart) are
    independent, so they are submitted as one batch to the kernel's
    ``polish_chains`` (one foreign call on the native backing). All
    restart seeds are pre-drawn in the exact order the historical
    draw-inside-the-loop search drew them — the chains consume no
    randomness — so a caller-managed ``rng`` finishes in the same state,
    and merging chain results in submission order with the same
    strict-``>`` rule keeps certificates (nodes, damage, evaluations)
    identical to that loop.
    """

    def __init__(
        self,
        restarts: int = 4,
        rng: Optional[random.Random] = None,
        seed: int = 0,
    ) -> None:
        if restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {restarts}")
        self.restarts = restarts
        self.rng = rng
        self.seed = seed

    def attack(
        self,
        placement: Placement,
        k: int,
        s: int,
        kernel: Optional[GainKernel] = None,
        warm_start: Optional[Sequence[int]] = None,
    ) -> AttackResult:
        _check_k(placement, k)
        model = _bind_kernel(placement, s, kernel)
        rng = self.rng if self.rng is not None else random.Random(self.seed)
        evaluations = 0
        counting = obs.metrics_enabled()
        # Semantic move counts, accumulated locally and flushed once at the
        # end. Counted here at the driver level — not inside the kernels —
        # because the native backing fuses whole polish chains into one
        # foreign call; the driver sees identical pass/position structure
        # on every backing, so these totals are bit-identical by design.
        node_adds = 0
        node_removes = 0
        swaps = 0

        def complete(seed_nodes: Sequence[int]) -> Tuple[List[int], int]:
            """Greedily extend a (possibly smaller) failure set to size k.

            Returns the nodes plus the candidate evaluations actually
            spent: duplicates and out-of-range entries in ``seed_nodes``
            are dropped *before* accounting, so the charge reflects the
            greedy steps that really ran.
            """
            nonlocal node_adds
            nodes = [u for u in dict.fromkeys(seed_nodes) if 0 <= u < model.n][:k]
            hits = model.hits_for(nodes)
            spent = 0
            while len(nodes) < k:
                v, _ = model.best_addition(hits, banned=nodes)
                spent += model.n - len(nodes)
                nodes.append(v)
                hits = model.add_node(hits, v)
                if counting:
                    node_adds += 1
            return nodes, spent

        greedy = GreedyAdversary().attack(placement, k, s, kernel=model)
        evaluations += greedy.evaluations
        seeds: List[List[int]] = [list(greedy.nodes)]
        if warm_start is not None:
            seeded, spent = complete(warm_start)
            evaluations += spent
            seeds.append(seeded)
        # Pre-draw every restart seed. The chains consume no randomness,
        # so the draw sequence — and a caller-managed generator's final
        # state — is identical to the historical draw-inside-the-loop
        # order, while the whole schedule goes down in one batch.
        seeds.extend(rng.sample(range(model.n), k) for _ in range(self.restarts))
        with obs.span("engine.restart_chain", chains=len(seeds)):
            chains = model.polish_chains(seeds)
        # Each chain reports the sweeps it ran; one sweep removes and
        # re-adds every position, examining n - (k - 1) candidates per
        # position, identically on every backing.
        pass_cost = k * (model.n - (k - 1))
        best_nodes: Tuple[int, ...] = ()
        best_damage = -1
        for nodes, dmg, passes, chain_swaps in chains:
            evaluations += passes * pass_cost
            if counting:
                node_removes += passes * k
                node_adds += passes * k
                swaps += chain_swaps
            if dmg > best_damage:
                best_nodes, best_damage = tuple(sorted(nodes)), dmg
        if counting:
            if self.restarts:
                obs.count("attack.restarts", self.restarts)
            if node_adds:
                obs.count("kernel.node_adds", node_adds)
            if node_removes:
                obs.count("kernel.node_removes", node_removes)
            if swaps:
                obs.count("kernel.swaps", swaps)
        return AttackResult(
            nodes=best_nodes, damage=best_damage, exact=False, evaluations=evaluations
        )


class BranchAndBoundAdversary:
    """Exact search with deficit-based pruning and a heuristic incumbent.

    Enumerates k-subsets in ascending node order; at each partial set it
    bounds the best completion with the kernel's refined bound — the
    deficit-based optimistic bound (objects still killable with the
    remaining slots among the not-yet-considered nodes) capped by the
    suffix top-degree sum, tightened further by the gain table's exact
    one-slot completion. With the local-search incumbent installed up front,
    most branches die immediately.

    ``max_nodes`` bounds the search-tree size (``None``: unlimited; a
    negative budget is rejected); on exhaustion the best-known attack is
    returned with ``exact=False``.

    On the native backing the tree search is one foreign call
    (``branch_and_bound``, same DFS, bound and budget); the python
    backing runs :func:`_search_tree`. Both return identical results and
    move counts.
    """

    def __init__(
        self,
        max_nodes: Optional[int] = 50_000_000,
        restarts: int = 2,
    ) -> None:
        _check_budget(max_nodes)
        self.max_nodes = max_nodes
        self.restarts = restarts

    def attack(
        self,
        placement: Placement,
        k: int,
        s: int,
        kernel: Optional[GainKernel] = None,
        warm_start: Optional[Sequence[int]] = None,
    ) -> AttackResult:
        _check_k(placement, k)
        model = _bind_kernel(placement, s, kernel)
        incumbent = LocalSearchAdversary(restarts=self.restarts).attack(
            placement, k, s, kernel=model, warm_start=warm_start
        )
        if model.backing == "native":
            found = model.branch_and_bound(
                k, incumbent.damage, incumbent.nodes, self.max_nodes
            )
        else:
            found = _search_tree(
                model, k, incumbent.damage, incumbent.nodes, self.max_nodes
            )
        nodes, best_damage, exhausted, leaves, moves = found
        if obs.metrics_enabled() and moves:
            obs.count("kernel.node_adds", moves)
            obs.count("kernel.node_removes", moves)
        return AttackResult(
            nodes=tuple(sorted(nodes)),
            damage=best_damage,
            exact=not exhausted,
            evaluations=incumbent.evaluations + leaves,
        )


def _search_tree(
    model: GainKernel,
    k: int,
    incumbent: int,
    incumbent_nodes: Sequence[int],
    max_nodes: Optional[int],
) -> Tuple[Tuple[int, ...], int, bool, int, int]:
    """Branch and bound below an incumbent: the executable reference.

    Enumerates k-subsets in ascending node order, pruning a partial set
    when the kernel's ``refined_bound`` cannot beat the best damage so
    far; a leaf replaces the best only if it is strictly better.
    ``max_nodes`` caps the internal tree nodes visited (``None``:
    unlimited). Returns ``(nodes, damage, exhausted, leaf_evaluations,
    moves)``, where ``moves`` counts add/remove pairs (every tree edge is
    one of each). The native backing runs the same search in one foreign
    call (``branch_and_bound``).
    """
    _check_budget(max_nodes)
    n = model.n
    best_damage = incumbent
    best_nodes = tuple(incumbent_nodes)
    evaluations = 0
    moves = 0
    budget = [max_nodes if max_nodes is not None else -1]
    exhausted = [False]
    chosen: List[int] = []

    def recurse(start: int, hits) -> None:
        nonlocal best_damage, best_nodes, evaluations, moves
        if exhausted[0]:
            return
        slots = k - len(chosen)
        if slots == 0:
            evaluations += 1
            d = model.damage_of(hits)
            if d > best_damage:
                best_damage = d
                best_nodes = tuple(chosen)
            return
        if budget[0] == 0:
            exhausted[0] = True
            return
        if budget[0] > 0:
            budget[0] -= 1
        # refined_bound = deficit bound capped by the suffix degree sum,
        # tightened by the gain table, which resolves one-slot
        # completions exactly.
        if model.refined_bound(hits, start, slots) <= best_damage:
            return
        for node in range(start, n - slots + 1):
            chosen.append(node)
            hits = model.add_node(hits, node)
            moves += 1
            recurse(node + 1, hits)
            hits = model.remove_node(hits, node)
            chosen.pop()
            if exhausted[0]:
                return

    recurse(0, model.empty_hits())
    return best_nodes, best_damage, exhausted[0], evaluations, moves


def best_attack(
    placement: Placement,
    k: int,
    s: int,
    effort: str = "auto",
    rng: Optional[random.Random] = None,
    kernel: Optional[GainKernel] = None,
    warm_start: Optional[Sequence[int]] = None,
) -> AttackResult:
    """Convenience dispatcher over the adversary ladder.

    ``effort``:
        * ``"fast"`` — local search only;
        * ``"exact"`` — branch and bound with no budget (provably optimal);
        * ``"auto"`` — exact for small instances (``C(n,k) * b`` below ~2e8),
          local search with extra restarts otherwise.

    ``kernel`` reuses a prebuilt damage kernel (incidence sharing across a
    grid of attacks); ``warm_start`` seeds the heuristic search with a
    known-good failure set, e.g. the result of the (k-1)-attack.
    """
    if effort == "fast":
        result = LocalSearchAdversary(restarts=4, rng=rng).attack(
            placement, k, s, kernel=kernel, warm_start=warm_start
        )
    elif effort == "exact":
        result = BranchAndBoundAdversary(max_nodes=None).attack(
            placement, k, s, kernel=kernel, warm_start=warm_start
        )
    elif effort == "auto":
        work = binom(placement.n, k) * placement.b
        if work <= 200_000_000:
            result = BranchAndBoundAdversary(max_nodes=5_000_000).attack(
                placement, k, s, kernel=kernel, warm_start=warm_start
            )
        else:
            result = LocalSearchAdversary(restarts=8, rng=rng).attack(
                placement, k, s, kernel=kernel, warm_start=warm_start
            )
    else:
        raise ValueError(f"unknown effort {effort!r}; use fast, exact or auto")
    if obs.metrics_enabled():
        # Counted once per completed search, at the dispatch point every
        # caller (engines, simulator, CLI) funnels through, so these are
        # pure semantic work counts.
        obs.count("attack.searches")
        obs.count("kernel.evaluations", result.evaluations)
        obs.observe("attack.damage", result.damage)
    return result
