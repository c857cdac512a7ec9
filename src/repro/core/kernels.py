"""The damage kernel: the shared hot path of worst-case search.

Every availability number in the paper (Definition 1's ``Avail(pi)`` =
min surviving objects over all C(n, k) failure sets) bottlenecks on one
operation: given a partial failure set, how many objects have lost at
least ``s`` replicas, and which node kills the most next? This module
implements that operation in one engine, :class:`GainKernel`.

The gain kernel maintains a length-``b`` hit-count vector plus a
length-``n`` marginal-gain table (``gain[v]`` = objects at count
``s - 1`` covered by ``v``), so ``add_node``/``remove_node`` touch only
the ~``r * b / n`` objects incident to the changed node instead of
rescanning all ``n * b`` pairs, ``best_addition`` is an O(n) argmax over
the table, and ``damage_of`` is O(1). Two backings share one contract
and return bit-identical results:

* ``native`` — C hot loops compiled at first use (see
  :mod:`repro.core.native`), with fused polish passes and chains and a
  fused branch and bound;
* ``python`` — the dependency-free reference, :class:`GainKernel`
  itself, which runs the generic ``try_swap``/``polish_pass``/
  ``polish_chain`` loops.

Backing choice: the ``gain_backing`` argument > ``REPRO_GAIN_BACKING`` >
``auto``, which is native when the C library loads and python otherwise.
:func:`resolve_gain_backing` is the one place that choice is made; no
fault at run time changes it.

Kernels bind an :class:`Incidence` — the placement's CSR, the one
incidence structure every backing reads, edited in place by deltas — to
one fatality threshold ``s``; the batch engine (:mod:`repro.core.batch`)
shares a single incidence across a whole grid of (k, s, effort) cells.

The ``hits`` objects a kernel hands out are opaque and owned by the
kernel: ``add_node``/``remove_node`` may mutate their argument and return
the object to use afterwards. Search engines therefore backtrack with the
inverse call instead of keeping references to earlier states.
"""

from __future__ import annotations

import os
from array import array
from operator import sub
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import native as _native
from repro.core.placement import Placement

#: Recognized gain-engine backings, fastest first. ``auto`` takes the
#: first one this process can load; the choice never changes a number.
GAIN_BACKINGS: Tuple[str, ...] = ("native", "python")


def resolve_gain_backing(requested: Optional[str] = None) -> str:
    """The concrete gain-engine backing: argument > ``REPRO_GAIN_BACKING``
    > ``auto`` (unset or empty means ``auto``).

    ``auto`` is native when the C library loads (a compiler is present
    and ``native.compile`` succeeded) and python otherwise. An *explicit*
    request for an unknown or unavailable backing raises instead, so a
    pinned configuration never silently measures the wrong thing.
    """
    choice = requested or os.environ.get("REPRO_GAIN_BACKING") or "auto"
    if choice == "auto":
        return "native" if _native.available() else "python"
    if choice not in GAIN_BACKINGS:
        raise ValueError(
            f"unknown gain backing {choice!r}; use auto or one of {GAIN_BACKINGS}"
        )
    if choice == "native" and not _native.available():
        raise ValueError(
            f"native gain backing requested but unavailable: {_native.load_error()}"
        )
    return choice


class Incidence:
    """The incidence of one placement: one CSR layout, edited in place.

    :meth:`csr` is ``(node_off, node_end, node_objs, obj_nodes)``, flat
    int32 arrays and the only incidence structure. Every backing reads
    it: native through exported pointers, python by slicing. Node ``v``
    hosts ``node_objs[node_off[v]:node_end[v]]``; object ``o`` sits on
    ``obj_nodes[o * r:(o + 1) * r]`` (every object has exactly ``r``
    replicas, so the object direction needs no offset array). One
    instance is shared by every kernel (any ``s``, any backing) and
    every attack cell evaluated against the same placement.

    A fresh incidence is the placement's own tight CSR: ``node_objs`` is
    the placement's cached :meth:`~Placement.node_csr` buffer,
    ``obj_nodes`` *is* its row buffer, and ``node_end[v] == node_off[v +
    1]``. The first :meth:`apply_delta` copies it into a padded layout
    (slack after every node segment, the object region sized past
    ``b``) and builds the replica offset index (the offset of each
    object's ``j``-th replica inside its node's segment), so later deltas
    edit O(r) words per changed replica in place and never scan a
    segment. Cold engines never build the index. Consumers bound reads
    by the live ``b`` and by ``node_end``; words past them are stale,
    and the order of ids inside a segment is arbitrary. Object rows stay
    sorted ascending (the placement's invariant; deltas sort added rows
    and re-sort moved ones), so the bounds read "at least ``d`` replicas
    on nodes >= ``start``" off a row as "its ``d``-th largest node is
    >= ``start``".

    Delta semantics, shared verbatim by every mirror of the object-id
    space (:class:`repro.core.batch.AttackEngine` callers track ids too):

    * single-replica moves apply first, in order, and keep the object's
      id (the row is re-sorted in place);
    * removals are processed in **descending id order**; removing id ``d``
      moves the **last** object into slot ``d`` (swap-with-last keeps ids
      dense, so hit-vector length stays ``b``);
    * additions are appended in iteration order after all removals.

    Attack results are invariant under object re-numbering (damage counts
    and per-node gains aggregate over objects), so a delta-updated engine
    and a cold engine built from the resulting placement return
    bit-for-bit identical :class:`~repro.core.adversary.AttackResult`\\ s
    — the property pinned by ``tests/core/test_delta.py``.
    """

    def __init__(self, placement: Placement) -> None:
        self.placement = placement
        self.n = placement.n
        self.b = placement.b
        self.r = placement.r
        self._csr: Optional[Tuple[array, array, array, array]] = None
        # (object, replica) -> offset of that replica inside its node's
        # segment, aligned with ``obj_nodes``; built by the first delta.
        self._offsets: Optional[array] = None
        self._top_degree_prefix: Optional[List[List[int]]] = None

    def csr(self) -> Tuple[array, array, array, array]:
        """``(node_off, node_end, node_objs, obj_nodes)``; see the class doc.

        The arrays are pinned by the native kernel's exported pointers,
        so they are never resized: a delta that overflows the padding
        replaces the whole tuple, and kernels re-read it in
        :meth:`GainKernel.rebind`.
        """
        if self._csr is None:
            node_off, node_objs = self.placement.node_csr()
            self._csr = (
                node_off, node_off[1:], node_objs,
                self.placement.replica_array(),
            )
        return self._csr

    def top_degree_sum(self, start: int, slots: int) -> int:
        """Max total load of any ``slots`` distinct nodes with id >= start.

        Static per placement. Bounds how many *object incidences* a
        completion drawn from the suffix can add, and therefore (since a
        not-yet-dead object needs at least one added incidence to die) how
        many objects it can newly kill — the cap used by
        :meth:`GainKernel.refined_bound`.
        """
        if self._top_degree_prefix is None:
            loads = self.placement.load_profile()
            table = []
            for j in range(self.n + 1):
                prefix = [0]
                for load in sorted(loads[j:], reverse=True):
                    prefix.append(prefix[-1] + load)
                table.append(prefix)
            self._top_degree_prefix = table
        prefix = self._top_degree_prefix[start]
        return prefix[min(max(slots, 0), len(prefix) - 1)]

    def _reserve(
        self,
        added: Sequence[Tuple[int, ...]],
        moved: Sequence[Tuple[int, int, int]],
    ) -> None:
        """Make room for one batch: at most one copy to a padded layout.

        The first call always copies (the tight layout shares the
        placement's buffers, which must never be written) and builds the
        replica offset index. Later calls copy only when the batch's
        additions and move targets would overflow a node segment or the
        object region, sizing the copy for the whole batch plus headroom:
        every segment gets half its need again plus a constant, and its
        need is at least the mean load, so a node that repair emptied
        keeps room to refill. A copy keeps each segment's order, so the
        offsets stay valid and only grow with the object region.
        """
        n, r, b = self.n, self.r, self.b
        node_off, node_end, node_objs, obj_nodes = self.csr()
        extra: Dict[int, int] = {}
        for row in added:
            for node in row:
                extra[node] = extra.get(node, 0) + 1
        for _obj_id, _old, new in moved:
            extra[new] = extra.get(new, 0) + 1
        need_b = b + len(added)
        if self._offsets is not None and need_b * r <= len(obj_nodes) and all(
            node_end[node] + more <= node_off[node + 1]
            for node, more in extra.items()
        ):
            return
        offsets = self._offsets
        if offsets is None:
            offsets = array("i", bytes(4 * b * r))
            for node in range(n):
                lo = node_off[node]
                for at in range(lo, node_end[node]):
                    base = node_objs[at] * r
                    column = obj_nodes[base:base + r].index(node)
                    offsets[base + column] = at - lo
        mean_load = need_b * r // n
        new_off = array("i", bytes(4 * (n + 1)))
        position = 0
        for node in range(n):
            new_off[node] = position
            need = node_end[node] - node_off[node] + extra.get(node, 0)
            need = max(need, mean_load)
            position += need + (need >> 1) + 4
        new_off[n] = position
        new_objs = array("i", bytes(4 * position))
        new_end = array("i", bytes(4 * n))
        for node in range(n):
            lo, hi, at = node_off[node], node_end[node], new_off[node]
            new_objs[at:at + hi - lo] = node_objs[lo:hi]
            new_end[node] = at + hi - lo
        cap = (need_b + (need_b >> 1) + 8) * r
        self._csr = (
            new_off, new_end, new_objs, _grown(obj_nodes, b * r, cap),
        )
        self._offsets = _grown(offsets, b * r, cap)

    def _unlink(self, replica: int) -> None:
        """Drop one replica (``obj * r + column``) from its node segment.

        The segment's tail entry takes the freed position, so the edit is
        O(r): one offset lookup, one update of the tail's own offset.
        """
        node_off, node_end, node_objs, obj_nodes = self._csr
        offsets, r = self._offsets, self.r
        node = obj_nodes[replica]
        lo = node_off[node]
        tail = node_end[node] - 1
        hole = lo + offsets[replica]
        if hole != tail:
            other = node_objs[tail]
            node_objs[hole] = other
            base = other * r
            offsets[base + obj_nodes[base:base + r].index(node)] = hole - lo
        node_end[node] = tail

    def _move(self, obj_id: int, old: int, new: int) -> bool:
        """Move one replica of ``obj_id`` from ``old`` to ``new``, in place.

        Returns False and changes nothing unless ``old`` is in the row and
        ``new`` is not. ``new``'s segment must have room (see
        :meth:`_reserve`); the row is re-sorted by shifting neighbours,
        and their offsets, over the vacated column.
        """
        node_off, node_end, node_objs, obj_nodes = self._csr
        offsets, r = self._offsets, self.r
        base = obj_id * r
        row = obj_nodes[base:base + r]
        if old not in row or new in row:
            return False
        at = base + row.index(old)
        self._unlink(at)
        end = node_end[new]
        node_objs[end] = obj_id
        node_end[new] = end + 1
        while at > base and obj_nodes[at - 1] > new:
            obj_nodes[at], offsets[at] = obj_nodes[at - 1], offsets[at - 1]
            at -= 1
        while at < base + r - 1 and obj_nodes[at + 1] < new:
            obj_nodes[at], offsets[at] = obj_nodes[at + 1], offsets[at + 1]
            at += 1
        obj_nodes[at], offsets[at] = new, end - node_off[new]
        return True

    def apply_delta(
        self,
        added: Sequence[Sequence[int]] = (),
        removed: Sequence[int] = (),
        moved: Sequence[Tuple[int, int, int]] = (),
    ) -> Placement:
        """Absorb one churn batch; returns the resulting placement.

        ``moved`` holds single-replica moves ``(id, old, new)``: current
        object ``id`` trades its replica on node ``old`` for one on node
        ``new`` and keeps its id (moves apply first, in order, so one
        object may move more than once). ``removed`` holds current object
        ids (distinct, any order); ``added`` holds replica node sets (size
        ``r``, distinct in-range nodes). Every edit costs O(r) words: the
        first delta builds the (object, replica) -> segment offset index,
        so removing, relabeling or moving a replica swaps it with its node
        segment's tail instead of searching the segment. A batch with an
        invalid entry raises ValueError and leaves the same rows and
        segment contents (moves already applied are undone). The returned
        :class:`Placement` is one copy of the live object rows, built
        without re-validation (the delta was validated here) and carrying
        the load profile read off the CSR, so no later consumer pays an
        O(b r) rescan.
        """
        n, r, b = self.n, self.r, self.b
        added_rows: List[Tuple[int, ...]] = []
        for nodes in added:
            row = tuple(sorted(nodes))
            if len(frozenset(row)) != r or len(row) != r:
                raise ValueError(
                    f"added object needs {r} distinct nodes, got {sorted(nodes)}"
                )
            for node in row:
                if not 0 <= node < n:
                    raise ValueError(
                        f"added object places a replica on node {node}, "
                        f"outside [0, {n})"
                    )
            added_rows.append(row)
        removed_ids = sorted(removed, reverse=True)
        if len(set(removed_ids)) != len(removed_ids):
            raise ValueError(f"duplicate removal ids in {sorted(removed)}")
        for obj_id in removed_ids:
            if not 0 <= obj_id < b:
                raise ValueError(
                    f"cannot remove object {obj_id}: ids span [0, {b})"
                )
        if b - len(removed_ids) + len(added_rows) == 0:
            raise ValueError("delta would leave the placement empty")
        moved = list(moved)
        for obj_id, _old, new in moved:
            if not (0 <= obj_id < b and 0 <= new < n):
                raise ValueError(
                    f"cannot move object {obj_id}'s replica to node {new}: "
                    f"ids span [0, {b}), nodes [0, {n})"
                )

        self._reserve(added_rows, moved)
        for done, (obj_id, old, new) in enumerate(moved):
            if not self._move(obj_id, old, new):
                error = ValueError(
                    f"cannot move object {obj_id}'s replica from node {old} "
                    f"to node {new}"
                )
                # Undo the moves before it: a rejected batch changes nothing.
                for undo_id, undo_old, undo_new in reversed(moved[:done]):
                    self._move(undo_id, undo_new, undo_old)
                raise error
        node_off, node_end, node_objs, obj_nodes = self._csr
        offsets = self._offsets
        for obj_id in removed_ids:
            base = obj_id * r
            for at in range(base, base + r):
                self._unlink(at)
            b -= 1
            if obj_id != b:
                last = b * r
                for at in range(last, last + r):
                    node_objs[node_off[obj_nodes[at]] + offsets[at]] = obj_id
                obj_nodes[base:base + r] = obj_nodes[last:last + r]
                offsets[base:base + r] = offsets[last:last + r]
        for row in added_rows:
            base = b * r
            obj_nodes[base:base + r] = array("i", row)
            for at, node in enumerate(row, base):
                end = node_end[node]
                node_objs[end] = b
                offsets[at] = end - node_off[node]
                node_end[node] = end + 1
            b += 1
        self.b = b

        # Snapshot straight into the trusted rows-backed constructor (rows
        # are sorted by invariant) and hand over the load profile, so no
        # later consumer pays an O(b r) revalidation or load rescan.
        placement = Placement(
            n=n, rows=obj_nodes[:b * r], r=r, strategy=self.placement.strategy,
        )
        loads = array("i", map(sub, node_end, node_off))
        placement.__dict__["_load"] = loads
        placement.__dict__["_load_profile"] = tuple(loads)
        self.placement = placement
        self._top_degree_prefix = None
        return placement


def _grown(words: array, live: int, cap: int) -> array:
    """A copy of ``words[:live]`` zero-padded to ``cap`` words."""
    grown = array("i")
    grown.frombytes(memoryview(words).cast("B")[:4 * live])
    grown.frombytes(bytes(4 * (cap - live)))
    return grown


class _GainHits:
    """Mutable gain-engine state: hit counts, gain table, dead counter."""

    __slots__ = ("counts", "gain", "dead")

    def __init__(self, counts, gain, dead: int) -> None:
        self.counts = counts
        self.gain = gain
        self.dead = dead


class GainKernel:
    """Incremental damage evaluation bound to one (placement, s) pair.

    This class is the gain-table engine's pure-python backing and the
    executable reference. State per hits object: ``counts[o]`` (failed
    replicas of object ``o``), ``gain[v]`` (objects at exactly ``s - 1``
    hits that node ``v`` covers, i.e. the marginal damage of failing
    ``v``), and ``dead`` (objects at ``>= s`` hits).
    ``add_node``/``remove_node`` walk only the objects incident to the
    changed node and propagate boundary crossings (counts hitting
    ``s - 1`` or ``s``) to the ~``r`` incident nodes of each crossing
    object — O(r^2 * b / n) per move versus the O(n * b) of a full
    rescan. ``best_addition`` is an O(n) argmax over the table
    (zero-gain candidates never cost a damage evaluation — the
    candidate pruning of classic max-coverage local search), and
    ``damage_of`` is O(1).

    The native backing subclasses this to swap how state is stored and
    which loops run in C, without changing results; the contract on
    ``hits`` objects (mutate-and-return, backtrack via the inverse call)
    is described in the module docstring.
    """

    name = "gain"
    backing = "python"

    def __init__(self, incidence: Incidence, s: int) -> None:
        placement = incidence.placement
        if not 1 <= s <= placement.r:
            raise ValueError(f"need 1 <= s <= r={placement.r}, got s={s}")
        self.incidence = incidence
        self.placement = placement
        self.s = s
        self.n = placement.n
        self.b = placement.b
        self.r = incidence.r
        self._csr = incidence.csr()

    def rebind(self) -> None:
        """Re-align with an :meth:`Incidence.apply_delta`.

        A delta edits the CSR arrays in place or replaces all four, so
        the python backing only re-reads the shape and the tuple; the
        native backing re-exports what it holds on top of this.
        """
        self.placement = self.incidence.placement
        self.b = self.incidence.b
        self._csr = self.incidence.csr()

    # -- hit-vector operations --------------------------------------------

    def empty_hits(self) -> _GainHits:
        counts = [0] * self.b
        if self.s == 1:
            # Every object sits at s - 1 = 0 hits: gain is the node load.
            gain = list(self.placement.load_array())
        else:
            gain = [0] * self.n
        return _GainHits(counts, gain, 0)

    def add_node(self, hits: _GainHits, node: int) -> _GainHits:
        s, r = self.s, self.r
        counts, gain = hits.counts, hits.gain
        dead = hits.dead
        node_off, node_end, node_objs, obj_nodes = self._csr
        for obj_id in node_objs[node_off[node]:node_end[node]]:
            c = counts[obj_id] + 1
            counts[obj_id] = c
            if c == s:
                dead += 1
                base = obj_id * r
                for w in obj_nodes[base:base + r]:
                    gain[w] -= 1
            elif c == s - 1:
                base = obj_id * r
                for w in obj_nodes[base:base + r]:
                    gain[w] += 1
        hits.dead = dead
        return hits

    def remove_node(self, hits: _GainHits, node: int) -> _GainHits:
        s, r = self.s, self.r
        counts, gain = hits.counts, hits.gain
        dead = hits.dead
        node_off, node_end, node_objs, obj_nodes = self._csr
        for obj_id in node_objs[node_off[node]:node_end[node]]:
            c = counts[obj_id]
            counts[obj_id] = c - 1
            if c == s:
                dead -= 1
                base = obj_id * r
                for w in obj_nodes[base:base + r]:
                    gain[w] += 1
            elif c == s - 1:
                base = obj_id * r
                for w in obj_nodes[base:base + r]:
                    gain[w] -= 1
        hits.dead = dead
        return hits

    def hits_for(self, nodes: Sequence[int]) -> _GainHits:
        hits = self.empty_hits()
        for node in nodes:
            hits = self.add_node(hits, node)
        return hits

    # -- queries -----------------------------------------------------------

    def damage_of(self, hits: _GainHits) -> int:
        return hits.dead

    def best_addition(self, hits: _GainHits, banned: Sequence[int]) -> Tuple[int, int]:
        """(node, resulting damage) maximizing damage after adding one node.

        Ties break toward the lowest node id in every backing, so search
        trajectories (and therefore heuristic results) are backing-independent.
        """
        banned_set = (
            banned if isinstance(banned, (set, frozenset)) else set(banned)
        )
        best_node, best_gain = -1, -1
        for node, g in enumerate(hits.gain):
            # Gain comparison first: losing candidates (in particular every
            # zero-gain node once a positive gain is seen) skip the set probe.
            if g > best_gain and node not in banned_set:
                best_node, best_gain = node, g
        if best_node < 0:
            return -1, -1
        return best_node, hits.dead + int(best_gain)

    def optimistic_bound(self, hits: _GainHits, start: int, slots: int) -> int:
        """Upper bound on damage after adding ``slots`` nodes from ``>= start``.

        Counts objects that are dead already or still killable: deficit
        (replicas to reach ``s``) at most ``slots`` *and* reachable among
        the not-yet-considered nodes. Used by branch-and-bound pruning.
        This bound is backing-independent by contract (the property tests
        pin it); tightenings go in :meth:`refined_bound`.
        """
        s, r, b = self.s, self.r, self.b
        obj_nodes = self._csr[3]
        count = hits.dead
        for deficit in range(1, min(slots, s) + 1):
            # An object `deficit` hits short of dying is killable iff at
            # least `deficit` replicas sit on nodes >= start; rows are
            # sorted, so iff its deficit-th largest node (column
            # r - deficit) does.
            at = s - deficit
            column = obj_nodes[r - deficit:b * r:r]
            for c, node in zip(hits.counts, column):
                if c == at and node >= start:
                    count += 1
        return count

    def refined_bound(self, hits: _GainHits, start: int, slots: int) -> int:
        """The tightest sound completion bound this kernel can offer.

        Combines :meth:`optimistic_bound` with the degree cap: every
        not-yet-dead object needs at least one added incidence to die, so
        a completion of ``slots`` nodes from the suffix kills at most
        ``top_degree_sum(start, slots)`` new objects. One-slot
        completions are resolved exactly by the gain table: the best
        single addition from the suffix adds the suffix's max gain.
        """
        bound = self.optimistic_bound(hits, start, slots)
        dead = self.damage_of(hits)
        cap = dead + self.incidence.top_degree_sum(start, slots)
        if cap < bound:
            bound = cap
        if slots == 1 and start < self.n:
            exact = dead + int(max(hits.gain[start:]))
            if exact < bound:
                bound = exact
        return bound

    # -- local search ------------------------------------------------------

    def try_swap(self, hits, node: int, banned, current: int):
        """One local-search polish position: swap ``node`` out if it pays.

        Removes ``node``, finds the best non-banned replacement, keeps it
        iff the resulting damage strictly beats ``current``, and restores
        ``node`` otherwise. ``banned`` must not contain ``node`` (so the
        no-op swap is a legal candidate). Returns
        ``(hits, swapped_in_node_or_None, resulting_damage)``; the native
        backing overrides this to run the whole position in one call.
        """
        hits = self.remove_node(hits, node)
        candidate, damage = self.best_addition(hits, banned)
        if damage > current:
            hits = self.add_node(hits, candidate)
            return hits, candidate, damage
        hits = self.add_node(hits, node)
        return hits, None, current

    def polish_pass(self, hits, nodes: List[int], current: int):
        """One steepest-positional local-search sweep over ``nodes``.

        Runs :meth:`try_swap` at every position in order, mutating
        ``nodes`` in place as swaps land. Returns
        ``(hits, resulting_damage, improved)``. The native backing
        overrides this to run the whole sweep in one foreign call;
        semantics (visit order, tie-breaks, strict-improvement rule) are
        identical everywhere, so search trajectories stay
        backing-independent.
        """
        banned = set(nodes)
        improved = False
        for position in range(len(nodes)):
            node = nodes[position]
            banned.discard(node)
            hits, swapped, current = self.try_swap(hits, node, banned, current)
            if swapped is not None:
                nodes[position] = swapped
                banned.add(swapped)
                improved = True
            else:
                banned.add(node)
        return hits, current, improved

    def polish_chain(
        self, seed_nodes: Sequence[int]
    ) -> Tuple[List[int], int, int, int]:
        """One whole polish-to-convergence chain from a seed failure set.

        Builds fresh hit state for the seed (never touching any hits
        object the caller holds), then repeats :meth:`polish_pass` until
        a sweep lands no swap. Returns ``(nodes, damage, passes,
        swaps)`` where ``passes`` counts every sweep (including the
        final non-improving one — the evaluation charge the adversary
        reconstructs) and ``swaps`` the positions whose occupant
        changed. A chain is a pure function of (kernel state, seed), so
        chains commute: running them in any order yields identical
        per-chain results.
        """
        nodes = list(seed_nodes)
        hits = self.hits_for(nodes)
        current = self.damage_of(hits)
        passes = 0
        swaps = 0
        improved = True
        while improved:
            before = list(nodes)
            hits, current, improved = self.polish_pass(hits, nodes, current)
            passes += 1
            swaps += sum(1 for a, b in zip(before, nodes) if a != b)
        return nodes, current, passes, swaps

    def polish_chains(
        self, seeds: Sequence[Sequence[int]]
    ) -> List[Tuple[List[int], int, int, int]]:
        """Run one :meth:`polish_chain` per seed; results in seed order.

        The native backing overrides this to run the whole batch in a
        single foreign call.
        """
        return [self.polish_chain(seed) for seed in seeds]


class _NativeGainHits:
    """Packed gain state shared zero-copy with the C library.

    One int32 buffer: ``counts`` in ``state[:b]``, the gain table in
    ``state[b:b + n]``, the dead counter at ``state[b + n]`` — a single
    allocation and a single pointer per foreign call.
    """

    __slots__ = ("state", "ptr", "_b", "_n")

    def __init__(self, state: array, b: int, n: int) -> None:
        self.state = state
        self.ptr = _native.i32_ptr(state)
        self._b = b
        self._n = n

    @property
    def counts(self) -> array:
        return self.state[:self._b]

    @property
    def gain(self) -> array:
        return self.state[self._b:self._b + self._n]

    @property
    def dead(self) -> int:
        return self.state[self._b + self._n]


class _NativeGainKernel(GainKernel):
    """Gain engine with C hot loops (see :mod:`repro.core.native`).

    The fused ``try_swap`` runs a whole polish position — remove, table
    argmax, conditional re-add — in one foreign call, which is what makes
    a LocalSearch sweep kernel-bound rather than interpreter-bound;
    ``polish_chains`` and ``branch_and_bound`` fuse a whole restart
    schedule and a whole exact search the same way. Instances are not
    thread-safe (they share small scratch buffers); the runner's process
    pool is unaffected.
    """

    backing = "native"

    def __init__(self, incidence: Incidence, s: int) -> None:
        super().__init__(incidence, s)
        lib = _native.load()
        self._add = lib.gk_add_node
        self._remove = lib.gk_remove_node
        self._bulk = lib.gk_bulk_build
        self._best = lib.gk_best_addition
        self._swap = lib.gk_try_swap
        self._pass = lib.gk_polish_pass
        self._chains = lib.gk_polish_chains
        self._bnb = lib.gk_branch_and_bound
        self._banned = array("i", bytes(4 * self.n))
        self._banned_ptr = _native.i32_ptr(self._banned)
        self._out = array("i", [0])
        self._out_ptr = _native.i32_ptr(self._out)
        self._bind_model()

    def _bind_model(self) -> None:
        """(Re)export the CSR model and empty-state template to C.

        ``self._csr`` keeps the exported buffers alive (and pinned).
        """
        node_off, node_end, node_objs, obj_nodes = self._csr
        self._model = _native.ModelStruct(
            self.n, self.b, self.s, self.placement.r,
            _native.i32_ptr(node_off), _native.i32_ptr(node_end),
            _native.i32_ptr(node_objs), _native.i32_ptr(obj_nodes),
        )
        self._model_ref = _native.model_ref(self._model)
        self._rebuild_template()

    def _rebuild_template(self) -> None:
        # Template for empty state: zero counts, per-node degrees in the
        # gain slots when s == 1 (every object sits at s - 1 = 0 hits).
        # Node degree == load (replicas are distinct per object), so the
        # placement's cached load array serves without materializing the
        # per-node object lists.
        template = array("i", bytes(4 * (self.b + self.n + 1)))
        if self.s == 1:
            template[self.b:self.b + self.n] = self.placement.load_array()
        self._empty_template = template.tobytes()

    def rebind(self) -> None:
        # A delta usually edits the padded CSR arrays in place, leaving
        # the exported pointers valid: only the model's object count and
        # the empty-state template need refreshing. A replaced CSR (the
        # first delta's copy, a capacity overflow) re-exports.
        exported = self._csr
        super().rebind()
        if self._csr is not exported:
            self._bind_model()
        else:
            self._model.b = self.b
            self._rebuild_template()

    def empty_hits(self) -> _NativeGainHits:
        return _NativeGainHits(
            array("i", self._empty_template), self.b, self.n
        )

    def hits_for(self, nodes: Sequence[int]) -> _NativeGainHits:
        hits = _NativeGainHits(
            array("i", bytes(4 * (self.b + self.n + 1))), self.b, self.n
        )
        node_arr = array("i", nodes)
        self._bulk(
            self._model_ref, _native.i32_ptr(node_arr), len(node_arr),
            hits.ptr,
        )
        return hits

    def add_node(self, hits: _NativeGainHits, node: int) -> _NativeGainHits:
        self._add(self._model_ref, node, hits.ptr)
        return hits

    def remove_node(self, hits: _NativeGainHits, node: int) -> _NativeGainHits:
        self._remove(self._model_ref, node, hits.ptr)
        return hits

    def best_addition(self, hits: _NativeGainHits, banned: Sequence[int]) -> Tuple[int, int]:
        flags = self._banned
        for node in banned:
            flags[node] = 1
        best = self._best(
            self._model_ref, hits.ptr, self._banned_ptr, self._out_ptr
        )
        for node in banned:
            flags[node] = 0
        if best < 0:
            return -1, -1
        return best, self._out[0]

    def try_swap(self, hits: _NativeGainHits, node: int, banned, current: int):
        flags = self._banned
        for banned_node in banned:
            flags[banned_node] = 1
        swapped = self._swap(
            self._model_ref, node, self._banned_ptr, current, hits.ptr,
            self._out_ptr,
        )
        for banned_node in banned:
            flags[banned_node] = 0
        if swapped < 0:
            return hits, None, current
        return hits, swapped, self._out[0]

    def polish_pass(self, hits: _NativeGainHits, nodes: List[int], current: int):
        flags = self._banned
        node_arr = array("i", nodes)
        for node in nodes:
            flags[node] = 1
        improved = self._pass(
            self._model_ref, hits.ptr, _native.i32_ptr(node_arr),
            len(node_arr), self._banned_ptr, current, self._out_ptr,
        )
        final_nodes = node_arr.tolist()
        for node in final_nodes:
            flags[node] = 0
        if improved:
            nodes[:] = final_nodes
            return hits, self._out[0], True
        return hits, current, False

    def polish_chains(
        self, seeds: Sequence[Sequence[int]]
    ) -> List[Tuple[List[int], int, int, int]]:
        """Fused chain batch: every chain in one foreign call.

        The chains run in seed order on a private scratch state, so the
        hits objects the caller holds are never touched, and the results
        are bit-identical to the generic per-chain loop.
        """
        seeds = [list(seed) for seed in seeds]
        chains = len(seeds)
        if chains == 0:
            return []
        k = len(seeds[0])
        if any(len(seed) != k for seed in seeds):
            raise ValueError("polish chains need uniform seed sizes")
        scratch = array("i", bytes(4 * (self.b + self.n + 1)))
        all_nodes = array("i", [node for seed in seeds for node in seed])
        damages = array("i", bytes(4 * chains))
        passes = array("i", bytes(4 * chains))
        swaps = array("i", bytes(4 * chains))
        self._chains(
            self._model_ref, _native.i32_ptr(scratch), self._banned_ptr,
            _native.i32_ptr(all_nodes), chains, k,
            _native.i32_ptr(damages), _native.i32_ptr(passes),
            _native.i32_ptr(swaps),
        )
        return [
            (
                all_nodes[i * k:(i + 1) * k].tolist(),
                damages[i],
                passes[i],
                swaps[i],
            )
            for i in range(chains)
        ]

    def branch_and_bound(
        self, k: int, incumbent: int, nodes: Sequence[int],
        max_nodes: Optional[int],
    ) -> Tuple[Tuple[int, ...], int, bool, int, int]:
        """The whole exact search in one foreign call.

        Runs ``gk_branch_and_bound`` from the incumbent (``incumbent``
        damage, reached by the k ``nodes``) under a ``max_nodes`` budget
        of internal tree nodes (``None``: unlimited). Returns ``(nodes,
        damage, exhausted, leaf_evaluations, moves)``, identical to the
        python reference :func:`repro.core.adversary._search_tree` on the
        same kernel state. Works on scratch state, so no hits object the
        caller holds is touched.
        """
        if max_nodes is not None and max_nodes < 0:
            raise ValueError(
                f"max_nodes must be >= 0 or None (unlimited), got {max_nodes}"
            )
        best = array("i", nodes)
        out = array("q", bytes(32))
        budget = -1 if max_nodes is None else max_nodes
        if self._bnb(
            self._model_ref, k, incumbent, _native.i32_ptr(best), budget,
            _native.i64_ptr(out),
        ) < 0:
            raise MemoryError("native branch and bound: scratch allocation failed")
        return tuple(best), out[0], bool(out[1]), out[2], out[3]


_GAIN_KERNELS = {
    "native": _NativeGainKernel,
    "python": GainKernel,
}


def make_kernel(
    placement: Placement,
    s: int,
    incidence: Optional[Incidence] = None,
    gain_backing: Optional[str] = None,
) -> GainKernel:
    """Build the damage kernel for ``(placement, s)``.

    Pass ``incidence`` to share one :class:`Incidence` across several
    kernels (different ``s``) over the same placement. ``gain_backing``
    pins the backing (default: ``REPRO_GAIN_BACKING``/auto).
    """
    if incidence is None:
        incidence = Incidence(placement)
    elif incidence.placement is not placement:
        raise ValueError("incidence was built for a different placement")
    backing = resolve_gain_backing(gain_backing)
    with obs.span("kernels.dispatch", backing=backing, s=s):
        kernel = _GAIN_KERNELS[backing](incidence, s)
    obs.count("kernel.dispatch." + backing)
    return kernel
