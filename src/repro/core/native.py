"""Optional C acceleration for the gain-table damage kernel.

The incremental gain engine (:class:`repro.core.kernels.GainKernel`) spends
its time in three tiny loops: fold one node's objects into the hit-count
vector, update the marginal-gain table for objects crossing the ``s - 1``
or ``s`` boundary, and argmax the gain table. Those loops are pure integer
index chasing — exactly the shape CPython is worst at and a C compiler is
best at — so this module compiles them with the system ``cc`` at first use
and drives them through :mod:`ctypes` over ``array('i')`` buffers.

This is an *accelerator*, not a dependency: no third-party packages, no
build step at install time. If no working compiler is found (or
``REPRO_GAIN_BACKING`` pins python) the gain kernel silently falls back
to its pure-python backing with identical results — the property tests
in ``tests/core/test_kernels.py`` pin both backings to the same
bit-for-bit behaviour.

Compiled artifacts are cached under a per-user directory (override with
``REPRO_NATIVE_CACHE``), keyed by a hash of the embedded C source, so the
compiler runs once per source revision per machine. The compiler is
``REPRO_CC`` (or ``CC``) when set, else the first working of cc/gcc/clang;
optimization tries ``-O3`` and falls back to ``-O2``. :func:`compile_info`
reports what actually built (or was cached for) the loaded library.

The library is single-threaded. Parallelism lives one level up, in the
persistent worker pool of :mod:`repro.exp.runner` (``repro run
--workers``). Within a process, ``gk_polish_chains`` runs a whole
local-search restart schedule in one foreign call and
``gk_branch_and_bound`` a whole exact search.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import sys
from array import array
from typing import Any, Dict, Optional

from repro import obs

#: The C implementation of the gain-engine hot loops. ``counts`` is the
#: per-object hit vector, ``gain[v]`` the number of objects exactly one
#: failure from fatal that node ``v`` covers, ``dead`` the objects already
#: at >= s hits. ``add``/``remove`` touch only the objects incident to the
#: changed node (the O(delta) update of the gain-table engine); the fused
#: ``try_swap`` runs one local-search polish position in a single call.
_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int32_t i32;
typedef int64_t i64;

typedef struct {
    i32 n, b, s, r;
    const i32 *node_off;   /* n: segment starts into node_objs */
    const i32 *node_end;   /* n: segment ends (start + load) */
    const i32 *node_objs;  /* objects hosted per node */
    const i32 *obj_nodes;  /* object o's r replica nodes at o * r */
} gk_model;

/* Separate start/end arrays (rather than the tight off[v]..off[v+1])
   let segments carry slack capacity, so the delta-aware incidence can
   absorb object churn by editing O(changed replicas) words in place
   instead of re-exporting the whole layout. */

/* One hits object is a single packed buffer: counts in state[0..b),
   the gain table in state[b..b+n), the dead counter at state[b+n].
   Packing keeps the ctypes surface to one pointer per call. */

void gk_add_node(const gk_model *m, i32 node, i32 *state)
{
    const i32 s = m->s, r = m->r;
    i32 *counts = state, *gain = state + m->b;
    i32 d = state[m->b + m->n];
    const i32 lo = m->node_off[node], hi = m->node_end[node];
    for (i32 i = lo; i < hi; i++) {
        const i32 o = m->node_objs[i];
        const i32 c = ++counts[o];
        if (c == s) {
            d++;
            for (i32 j = o * r; j < o * r + r; j++)
                gain[m->obj_nodes[j]]--;
        } else if (c == s - 1) {
            for (i32 j = o * r; j < o * r + r; j++)
                gain[m->obj_nodes[j]]++;
        }
    }
    state[m->b + m->n] = d;
}

void gk_remove_node(const gk_model *m, i32 node, i32 *state)
{
    const i32 s = m->s, r = m->r;
    i32 *counts = state, *gain = state + m->b;
    i32 d = state[m->b + m->n];
    const i32 lo = m->node_off[node], hi = m->node_end[node];
    for (i32 i = lo; i < hi; i++) {
        const i32 o = m->node_objs[i];
        const i32 c = counts[o]--;
        if (c == s) {
            d--;
            for (i32 j = o * r; j < o * r + r; j++)
                gain[m->obj_nodes[j]]++;
        } else if (c == s - 1) {
            for (i32 j = o * r; j < o * r + r; j++)
                gain[m->obj_nodes[j]]--;
        }
    }
    state[m->b + m->n] = d;
}

/* Zero the state and fold `count` nodes in — the bulk (re)build. */
void gk_bulk_build(const gk_model *m, const i32 *nodes, i32 count,
                   i32 *state)
{
    memset(state, 0, (size_t)(m->b + m->n + 1) * sizeof(i32));
    if (m->s == 1)  /* every object sits at s - 1 = 0 hits: gain = degree */
        for (i32 v = 0; v < m->n; v++)
            state[m->b + v] = m->node_end[v] - m->node_off[v];
    for (i32 i = 0; i < count; i++)
        gk_add_node(m, nodes[i], state);
}

/* Highest-gain non-banned node, ties toward the lowest id; returns the
   node (-1 if everything is banned) and writes the resulting damage. */
i32 gk_best_addition(const gk_model *m, const i32 *state, const i32 *banned,
                     i32 *damage_out)
{
    const i32 *gain = state + m->b;
    i32 best_node = -1, best_gain = -1;
    const i32 n = m->n;
    for (i32 v = 0; v < n; v++) {
        if (banned[v]) continue;
        const i32 g = gain[v];
        if (g > best_gain) { best_node = v; best_gain = g; }
    }
    *damage_out = best_node < 0 ? -1 : state[m->b + n] + best_gain;
    return best_node;
}

/* One polish position fused into a single call: remove `u`, find the best
   non-banned replacement, keep it iff it strictly beats `current`, else
   restore `u`. `banned` must not flag `u`. Returns the swapped-in node or
   -1; writes the resulting damage. */
i32 gk_try_swap(const gk_model *m, i32 u, const i32 *banned, i32 current,
                i32 *state, i32 *damage_out)
{
    gk_remove_node(m, u, state);
    i32 damage = 0;
    const i32 v = gk_best_addition(m, state, banned, &damage);
    if (v >= 0 && damage > current) {
        gk_add_node(m, v, state);
        *damage_out = damage;
        return v;
    }
    gk_add_node(m, u, state);
    *damage_out = current;
    return -1;
}

/* One full steepest-positional polish sweep: try_swap at every position
   in order, updating `nodes` and the banned flags in place. Flags must
   arrive marking exactly the nodes in `nodes`; they leave marking the
   final set. Returns 1 iff any position improved; writes the final
   damage. */
i32 gk_polish_pass(const gk_model *m, i32 *state, i32 *nodes, i32 k,
                   i32 *banned, i32 current, i32 *current_out)
{
    i32 improved = 0;
    for (i32 p = 0; p < k; p++) {
        const i32 u = nodes[p];
        banned[u] = 0;
        gk_remove_node(m, u, state);
        i32 damage = 0;
        const i32 v = gk_best_addition(m, state, banned, &damage);
        if (v >= 0 && damage > current) {
            gk_add_node(m, v, state);
            nodes[p] = v;
            banned[v] = 1;
            current = damage;
            improved = 1;
        } else {
            gk_add_node(m, u, state);
            banned[u] = 1;
        }
    }
    *current_out = current;
    return improved;
}

/* One polish-to-convergence chain on scratch state: bulk-rebuild the
   gain state from the seed set, then repeat the steepest-positional
   sweep (same visit order, tie-breaks and strict-improvement rule as
   gk_polish_pass) until a sweep lands no swap. `banned` must arrive
   all-clear; it leaves all-clear. Returns the number of sweeps run
   (the driver's evaluation charge is sweeps x k x (n - k + 1)); writes
   the final damage and the accepted-swap count — a swapped-in node can
   never equal the one removed (re-adding it only restores `current`,
   never strictly beats it), so this equals the per-position occupant
   diff the serial driver counts. */
i32 gk_polish_chain(const gk_model *m, i32 *state, i32 *banned,
                    i32 *nodes, i32 k, i32 *damage_out, i32 *swaps_out)
{
    gk_bulk_build(m, nodes, k, state);
    for (i32 p = 0; p < k; p++)
        banned[nodes[p]] = 1;
    i32 current = state[m->b + m->n];
    i32 passes = 0, swaps = 0, improved = 1;
    while (improved) {
        improved = 0;
        for (i32 p = 0; p < k; p++) {
            const i32 u = nodes[p];
            banned[u] = 0;
            gk_remove_node(m, u, state);
            i32 damage = 0;
            const i32 v = gk_best_addition(m, state, banned, &damage);
            if (v >= 0 && damage > current) {
                gk_add_node(m, v, state);
                nodes[p] = v;
                banned[v] = 1;
                current = damage;
                improved = 1;
                swaps++;
            } else {
                gk_add_node(m, u, state);
                banned[u] = 1;
            }
        }
        passes++;
    }
    for (i32 p = 0; p < k; p++)
        banned[nodes[p]] = 0;
    *damage_out = current;
    *swaps_out = swaps;
    return passes;
}

/* Run every chain to convergence in seed order on one caller-owned
   scratch block (`state`, b + n + 1 words; `banned`, n all-clear
   flags). Chain i polishes its own k-node slice of `all_nodes` in
   place and writes only its own output slots. */
void gk_polish_chains(const gk_model *m, i32 *state, i32 *banned,
                      i32 *all_nodes, i32 chains, i32 k, i32 *damages,
                      i32 *passes, i32 *swaps)
{
    for (i32 i = 0; i < chains; i++)
        passes[i] = gk_polish_chain(m, state, banned,
                                    all_nodes + (size_t)i * k, k,
                                    &damages[i], &swaps[i]);
}

/* ---- Fused branch and bound ------------------------------------------

   The exact search of BranchAndBoundAdversary in one call: the same
   ascending-node DFS from the incumbent, the same strict-`>` leaf rule,
   the same node budget and the same refined bound as its python
   reference. The deficit part of the bound is maintained incrementally:
   diff[d * n + j] counts the objects at deficit d (1 <= d <= s, i.e. s - d
   hits) whose d-th largest replica node is j. Every chosen node is below
   `start`, so such an object is still killable from the suffix iff j >=
   start, and the deficit bound is dead + sum over d <= min(slots, s),
   j >= start of diff[d * n + j]: O(s n) per tree node instead of O(b). */

typedef struct {
    const gk_model *m;
    i32 k;
    i32 *state;        /* counts | gain | dead, as everywhere else */
    const i32 *top;    /* b x s: top[o * s + d - 1] = d-th largest node */
    i32 *diff;         /* (s + 1) x n; row 0 unused */
    const i64 *topdeg; /* (n + 1) x (k + 1): top-`c` load sum over >= j */
    i32 *chosen, *best_nodes;
    i32 best, exhausted;
    i64 budget, evaluations, moves;
} bnb_ctx;

/* gk_add_node plus the deficit-table move of every touched object. */
static void bnb_add(bnb_ctx *x, i32 node)
{
    const gk_model *m = x->m;
    const i32 s = m->s, n = m->n, r = m->r;
    i32 *counts = x->state, *gain = x->state + m->b;
    i32 d = x->state[m->b + n];
    for (i32 i = m->node_off[node]; i < m->node_end[node]; i++) {
        const i32 o = m->node_objs[i];
        const i32 c = ++counts[o];
        const i32 before = s - c + 1;  /* deficit before this hit */
        if (before >= 1) {
            const i32 *t = x->top + (size_t)o * s;
            x->diff[before * n + t[before - 1]]--;
            if (before >= 2)
                x->diff[(before - 1) * n + t[before - 2]]++;
        }
        if (c == s) {
            d++;
            for (i32 j = o * r; j < o * r + r; j++)
                gain[m->obj_nodes[j]]--;
        } else if (c == s - 1) {
            for (i32 j = o * r; j < o * r + r; j++)
                gain[m->obj_nodes[j]]++;
        }
    }
    x->state[m->b + n] = d;
}

static void bnb_remove(bnb_ctx *x, i32 node)
{
    const gk_model *m = x->m;
    const i32 s = m->s, n = m->n, r = m->r;
    i32 *counts = x->state, *gain = x->state + m->b;
    i32 d = x->state[m->b + n];
    for (i32 i = m->node_off[node]; i < m->node_end[node]; i++) {
        const i32 o = m->node_objs[i];
        const i32 c = counts[o]--;
        const i32 after = s - c + 1;  /* deficit after losing this hit */
        if (after >= 1) {
            const i32 *t = x->top + (size_t)o * s;
            if (after >= 2)
                x->diff[(after - 1) * n + t[after - 2]]--;
            x->diff[after * n + t[after - 1]]++;
        }
        if (c == s) {
            d--;
            for (i32 j = o * r; j < o * r + r; j++)
                gain[m->obj_nodes[j]]++;
        } else if (c == s - 1) {
            for (i32 j = o * r; j < o * r + r; j++)
                gain[m->obj_nodes[j]]--;
        }
    }
    x->state[m->b + n] = d;
}

/* 1 iff refined_bound(start, slots) <= best: the minimum of the degree
   cap, the exact one-slot gain and the deficit bound is at most `best`
   iff one of them is, so the cheap parts go first and the deficit sum
   stops as soon as it passes `best`. */
static i32 bnb_prunes(const bnb_ctx *x, i32 start, i32 slots)
{
    const gk_model *m = x->m;
    const i32 n = m->n, s = m->s, best = x->best;
    const i64 dead = x->state[m->b + n];
    const i32 room = n - start;
    if (dead + x->topdeg[(size_t)start * (x->k + 1)
                         + (slots < room ? slots : room)] <= best)
        return 1;
    if (slots == 1 && start < n) {
        const i32 *gain = x->state + m->b;
        i32 top = gain[start];
        for (i32 j = start + 1; j < n; j++)
            if (gain[j] > top) top = gain[j];
        if (dead + top <= best) return 1;
    }
    i64 bound = dead;
    const i32 dmax = slots < s ? slots : s;
    for (i32 d = 1; d <= dmax; d++) {
        const i32 *row = x->diff + (size_t)d * n;
        for (i32 j = start; j < n; j++)
            bound += row[j];
        if (bound > best) return 0;
    }
    return bound <= best;
}

static void bnb_recurse(bnb_ctx *x, i32 start, i32 depth)
{
    const gk_model *m = x->m;
    const i32 slots = x->k - depth;
    if (slots == 0) {
        x->evaluations++;
        const i32 d = x->state[m->b + m->n];
        if (d > x->best) {
            x->best = d;
            memcpy(x->best_nodes, x->chosen, (size_t)x->k * sizeof(i32));
        }
        return;
    }
    if (x->budget == 0) {
        x->exhausted = 1;
        return;
    }
    if (x->budget > 0) x->budget--;
    if (bnb_prunes(x, start, slots)) return;
    for (i32 node = start; node <= m->n - slots; node++) {
        x->chosen[depth] = node;
        bnb_add(x, node);
        x->moves++;
        bnb_recurse(x, node + 1, depth + 1);
        bnb_remove(x, node);
        if (x->exhausted) return;
    }
}

/* Exact k-attack from the incumbent (`incumbent` damage, its nodes in
   `best_nodes`, k words, overwritten by the best set found). `budget`
   caps the internal tree nodes visited; negative means unlimited.
   Writes out[0] = damage, out[1] = 1 iff the budget ran out, out[2] =
   leaf evaluations, out[3] = node add/remove pairs. Returns 0, or -1
   if scratch memory could not be allocated. */
i32 gk_branch_and_bound(const gk_model *m, i32 k, i32 incumbent,
                        i32 *best_nodes, i64 budget, i64 *out)
{
    const i32 n = m->n, b = m->b, s = m->s, r = m->r;
    i32 *state = malloc((size_t)(b + n + 1) * sizeof(i32));
    i32 *top = malloc(((size_t)b * s + 1) * sizeof(i32));
    i32 *diff = calloc((size_t)(s + 1) * n + 1, sizeof(i32));
    i64 *topdeg = calloc((size_t)(n + 1) * (k + 1), sizeof(i64));
    i32 *loads = malloc(((size_t)n + 1) * sizeof(i32));
    i32 *row = malloc(((size_t)r + 1) * sizeof(i32));
    i32 *chosen = malloc(((size_t)k + 1) * sizeof(i32));
    i32 rc = -1;
    if (!state || !top || !diff || !topdeg || !loads || !row || !chosen)
        goto done;

    /* Each object's s largest replica nodes, by a local insertion sort of
       its row (delta-edited rows need not be sorted); every object starts
       at deficit s. */
    for (i32 o = 0; o < b; o++) {
        const i32 lo = o * r;
        for (i32 i = 0; i < r; i++) {
            const i32 v = m->obj_nodes[lo + i];
            i32 j = i;
            for (; j > 0 && row[j - 1] < v; j--) row[j] = row[j - 1];
            row[j] = v;
        }
        memcpy(top + (size_t)o * s, row, (size_t)s * sizeof(i32));
        diff[(size_t)s * n + row[s - 1]]++;
    }

    /* Top-degree table from the live segment lengths: for each suffix
       start j, the prefix sums of its loads in descending order, kept
       sorted by insertion as j walks down. */
    i32 held = 0;
    for (i32 j = n; j >= 0; j--) {
        if (j < n) {
            const i32 v = m->node_end[j] - m->node_off[j];
            i32 i = held++;
            for (; i > 0 && loads[i - 1] < v; i--) loads[i] = loads[i - 1];
            loads[i] = v;
        }
        i64 *prefix = topdeg + (size_t)j * (k + 1);
        for (i32 c = 1; c <= k && c <= held; c++)
            prefix[c] = prefix[c - 1] + loads[c - 1];
    }

    gk_bulk_build(m, NULL, 0, state);
    bnb_ctx x = {m, k, state, top, diff, topdeg, chosen, best_nodes,
                 incumbent, 0, budget, 0, 0};
    bnb_recurse(&x, 0, 0);
    out[0] = x.best;
    out[1] = x.exhausted;
    out[2] = x.evaluations;
    out[3] = x.moves;
    rc = 0;
done:
    free(state); free(top); free(diff); free(topdeg);
    free(loads); free(row); free(chosen);
    return rc;
}
"""

_CC_CANDIDATES = ("cc", "gcc", "clang")
_OPT_LEVELS = ("-O3", "-O2")

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[str] = None
_compile_info: Optional[Dict[str, Any]] = None

_I32P = ctypes.POINTER(ctypes.c_int32)
_I64P = ctypes.POINTER(ctypes.c_int64)


class ModelStruct(ctypes.Structure):
    """ctypes mirror of the C ``gk_model``."""

    _fields_ = [
        ("n", ctypes.c_int32),
        ("b", ctypes.c_int32),
        ("s", ctypes.c_int32),
        ("r", ctypes.c_int32),
        ("node_off", _I32P),
        ("node_end", _I32P),
        ("node_objs", _I32P),
        ("obj_nodes", _I32P),
    ]


def i32_ptr(buffer: array) -> "ctypes.Array":
    """An ``int32*`` argument viewing an ``array('i')`` (zero-copy).

    A ctypes array passes wherever an ``int32*`` is declared, argument or
    struct field. It is not ``ctypes.cast`` to a pointer: a cast result
    shares a dict that refers back to its source, a reference cycle that
    would keep the viewed buffer alive until the cyclic collector runs.
    """
    return (ctypes.c_int32 * len(buffer)).from_buffer(buffer)


def i64_ptr(buffer: array) -> "ctypes.Array":
    """An ``int64*`` argument viewing an ``array('q')`` (zero-copy)."""
    return (ctypes.c_int64 * len(buffer)).from_buffer(buffer)


def model_ref(model: "ModelStruct"):
    """A reusable by-reference handle for passing the model struct."""
    return ctypes.byref(model)


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    if os.path.isabs(xdg):
        return os.path.join(xdg, "repro-native")
    # No usable home directory: fall back to a per-user tempdir.
    import tempfile

    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _assert_private(directory: str) -> None:
    """Refuse cache directories another local user could have planted.

    Loading a cached ``.so`` executes it, so before trusting one the
    directory must belong to us and admit no group/other writers — the
    predictable-path attack on shared machines.
    """
    if not hasattr(os, "getuid"):  # pragma: no cover - non-POSIX
        return
    info = os.stat(directory)
    if info.st_uid != os.getuid():
        raise RuntimeError(
            f"native cache dir {directory!r} is owned by uid {info.st_uid}, "
            f"not us; set REPRO_NATIVE_CACHE to a private directory"
        )
    if info.st_mode & 0o022:
        raise RuntimeError(
            f"native cache dir {directory!r} is group/world-writable; "
            f"set REPRO_NATIVE_CACHE to a private directory"
        )


def _compiler_candidates() -> tuple:
    """The compiler ladder: an env override pins one, else cc/gcc/clang."""
    override = os.environ.get("REPRO_CC") or os.environ.get("CC")
    if override:
        return (override,)
    return _CC_CANDIDATES


def _record_compile_info(info_path: str, info: Dict[str, Any]) -> None:
    global _compile_info
    _compile_info = dict(info)
    try:
        scratch = f"{info_path}.tmp.{os.getpid()}"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(info, handle, indent=2, sort_keys=True)
        os.replace(scratch, info_path)
    except OSError:
        pass  # introspection metadata only; the .so is what matters


def _compile() -> str:
    """Compile the embedded source, returning the shared-object path.

    The compiler is ``REPRO_CC`` (or ``CC``) when set, else the first
    working of cc/gcc/clang; each candidate tries ``-O3`` first and falls
    back to ``-O2``. The output is cached by source hash; concurrent
    processes race safely because each compiles to a unique temp name and
    ``os.replace`` is atomic. The winning recipe is persisted beside the
    ``.so`` and surfaced via :func:`compile_info`.
    """
    global _compile_info
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    directory = _cache_dir()
    target = os.path.join(directory, f"gain_kernel_{digest}.so")
    info_path = os.path.join(directory, f"gain_kernel_{digest}.json")
    if os.path.exists(target):
        _assert_private(directory)
        if _compile_info is None:
            try:
                with open(info_path, "r", encoding="utf-8") as handle:
                    _compile_info = dict(json.load(handle), cached=True)
            except (OSError, ValueError):
                _compile_info = {"cached": True, "source_digest": digest}
        return target
    os.makedirs(directory, mode=0o700, exist_ok=True)
    _assert_private(directory)
    source_path = os.path.join(directory, f"gain_kernel_{digest}.c")
    with open(source_path, "w", encoding="utf-8") as handle:
        handle.write(_SOURCE)
    # Only a cache miss runs the compiler, so only a cache miss pays for
    # subprocess (and its selectors chain): ~5 ms per process.
    import subprocess

    scratch = f"{target}.tmp.{os.getpid()}"
    last_error = "no C compiler found"
    for compiler in _compiler_candidates():
        for opt in _OPT_LEVELS:
            flags = [opt, "-shared", "-fPIC"]
            try:
                result = subprocess.run(
                    [compiler, *flags, "-o", scratch, source_path],
                    capture_output=True,
                    timeout=120,
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                last_error = f"{compiler}: {exc}"
                break  # missing/hung compiler: no point retrying flags
            if result.returncode == 0:
                os.replace(scratch, target)
                _record_compile_info(info_path, {
                    "compiler": compiler,
                    "flags": flags,
                    "source_digest": digest,
                    "cached": False,
                })
                return target
            last_error = (
                f"{compiler} {opt}: "
                f"{result.stderr.decode(errors='replace')}"
            )
    raise RuntimeError(f"could not compile native gain kernel: {last_error}")


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    model_p = ctypes.POINTER(ModelStruct)
    lib.gk_add_node.argtypes = [model_p, ctypes.c_int32, _I32P]
    lib.gk_add_node.restype = None
    lib.gk_remove_node.argtypes = lib.gk_add_node.argtypes
    lib.gk_remove_node.restype = None
    lib.gk_bulk_build.argtypes = [model_p, _I32P, ctypes.c_int32, _I32P]
    lib.gk_bulk_build.restype = None
    lib.gk_best_addition.argtypes = [model_p, _I32P, _I32P, _I32P]
    lib.gk_best_addition.restype = ctypes.c_int32
    lib.gk_try_swap.argtypes = [
        model_p, ctypes.c_int32, _I32P, ctypes.c_int32, _I32P, _I32P
    ]
    lib.gk_try_swap.restype = ctypes.c_int32
    lib.gk_polish_pass.argtypes = [
        model_p, _I32P, _I32P, ctypes.c_int32, _I32P, ctypes.c_int32, _I32P
    ]
    lib.gk_polish_pass.restype = ctypes.c_int32
    lib.gk_polish_chains.argtypes = [
        model_p, _I32P, _I32P, _I32P, ctypes.c_int32, ctypes.c_int32,
        _I32P, _I32P, _I32P,
    ]
    lib.gk_polish_chains.restype = None
    lib.gk_branch_and_bound.argtypes = [
        model_p, ctypes.c_int32, ctypes.c_int32, _I32P, ctypes.c_int64,
        _I64P,
    ]
    lib.gk_branch_and_bound.restype = ctypes.c_int32
    return lib


def load() -> ctypes.CDLL:
    """The compiled library, compiling on first use. Raises on failure."""
    global _lib, _load_attempted, _load_error
    if _lib is not None:
        return _lib
    if _load_attempted and _load_error is not None:
        raise RuntimeError(_load_error)
    _load_attempted = True
    try:
        # The ``native.compile`` injection point: an injected fault here
        # makes the backing "unavailable" for the rest of the process,
        # which is exactly what a broken toolchain looks like — ``auto``
        # must resolve to python, never abort the run.
        from repro.faults import injector as _chaos

        _chaos.inject("native.compile")
        if array("i").itemsize != 4:  # pragma: no cover - exotic platforms
            raise RuntimeError("array('i') is not 32-bit on this platform")
        if sys.platform == "win32":  # pragma: no cover - not a target
            raise RuntimeError("native backing is not supported on Windows")
        with obs.span("native.compile"):
            _lib = _bind(ctypes.CDLL(_compile()))
        obs.count("native.compiles")
    except Exception as exc:  # noqa: BLE001 - any failure means "unavailable"
        _load_error = str(exc)
        raise RuntimeError(_load_error) from None
    return _lib


def available() -> bool:
    """True iff the native backing can be (or already was) loaded."""
    try:
        load()
    except RuntimeError:
        return False
    return True


def load_error() -> Optional[str]:
    """Why the last load failed (None if never attempted or it worked)."""
    return _load_error


def compile_info() -> Optional[Dict[str, Any]]:
    """How the loaded library was built: compiler, flags, cache status.

    None until a load is attempted (or when the load failed before the
    compile step). ``cached: True`` means a previously built ``.so`` was
    reused; the recorded compiler/flags then describe the build that
    produced it (read back from the JSON persisted beside the cache
    entry, when present).
    """
    return None if _compile_info is None else dict(_compile_info)
