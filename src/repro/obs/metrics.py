"""Process-wide metrics registry: named counters, histograms, events.

The registry is the single accounting surface for the whole stack —
kernels, adversaries, the attack engine, the sharded runner, the
simulator, the run store, and the fault injector all report here. Design
rules, in priority order:

* **Strict catalog.** Every instrument is declared in :data:`CATALOG`
  with a kind, a determinism class, and a description; recording against
  an undeclared name raises. Typos fail loudly and the catalog doubles
  as the documentation the ``repro stats`` renderer and the README
  print.
* **Deterministic vs ops instruments.** ``deterministic`` instruments
  count *semantic work* — searches run, candidate evaluations, node
  adds/removes/swaps, strikes, cells committed. For a fixed spec and
  seed their values are bit-identical across gain backings, native
  thread counts, runner worker counts, and chaos retries that succeed,
  which makes them a correctness oracle tests can pin (and the only
  instruments the run-store manifest snapshots). ``ops`` instruments
  describe *how* the work was executed (engine builds, kernel dispatch,
  retries, fault fires) and legitimately vary with process
  topology, so they are reported but never pinned.
* **Gated vs always.** Hot-path instruments record only when metrics
  are enabled (``REPRO_METRICS=1`` / :func:`set_metrics`), so the
  default-off overhead is one flag check per coarse operation.
  Control-plane instruments (``always=True``: shard retries, fault
  fires, mmap fallbacks, native compiles) are so rare
  and so diagnostic that they record unconditionally — they are the
  single source of truth the runner's fault record is built from.
* **Fork-aware by protocol, not by magic.** A forked worker inherits
  the parent's values; workers therefore report the *delta* between a
  :func:`checkpoint` taken at task start and task end, and the
  supervisor merges only the deltas of attempts that succeeded
  (:func:`merge_delta`). That is what makes counter totals exact across
  any worker count and invariant under retried-then-successful shards.
  In-process retries use :func:`rollback`, which restores gated
  instruments to a checkpoint while always-instruments keep counting.

Everything here is stdlib-only and imports nothing from ``repro`` —
every layer of the stack can depend on it without cycles.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

__all__ = [
    "CATALOG",
    "Instrument",
    "MetricsError",
    "metrics_enabled",
    "set_metrics",
    "count",
    "observe",
    "record_event",
    "events",
    "counter_value",
    "snapshot",
    "checkpoint",
    "delta_since",
    "delta_value",
    "deterministic_delta",
    "merge_delta",
    "rollback",
    "reset_metrics",
]


class MetricsError(ValueError):
    """Raised on unknown instruments or malformed ``REPRO_METRICS`` values."""


@dataclass(frozen=True)
class Instrument:
    """One declared instrument: its kind, determinism class, and meaning."""

    name: str
    kind: str  # "counter" | "histogram"
    deterministic: bool  # pinned across backings/workers/retries
    always: bool  # records even when metrics are disabled
    description: str


def _c(name: str, description: str, *, det: bool = False, always: bool = False) -> Instrument:
    return Instrument(name, "counter", det, always, description)


def _h(name: str, description: str, *, det: bool = False) -> Instrument:
    return Instrument(name, "histogram", det, False, description)


#: Every instrument the stack records, keyed by name. ``deterministic``
#: entries are the manifest-snapshot / test-oracle set; the rest are
#: operational visibility. ``always`` entries record with metrics off.
CATALOG: Dict[str, Instrument] = {
    inst.name: inst
    for inst in (
        # -- deterministic semantic-work counters --------------------------
        _c("attack.searches",
           "worst-case searches executed", det=True),
        _c("attack.restarts",
           "local-search restart chains polished (lane-count invariant)",
           det=True),
        _c("kernel.evaluations",
           "candidate damage evaluations spent across searches", det=True),
        _c("kernel.node_adds",
           "semantic node additions (greedy steps, seed builds, B&B pushes)",
           det=True),
        _c("kernel.node_removes",
           "semantic node removals (polish positions, B&B pops)", det=True),
        _c("kernel.swaps",
           "accepted strict-improvement polish swaps", det=True),
        _c("sim.events", "simulator events handled", det=True),
        _c("sim.strikes", "adversary strikes recorded", det=True),
        _c("sim.strikes.delta",
           "strikes served by the delta-aware warm engine", det=True),
        _c("sim.strikes.rebuild",
           "strikes served by per-strike engine rebuilds", det=True),
        _c("store.cells_committed",
           "cells appended to the run store", det=True),
        # -- deterministic histograms --------------------------------------
        _h("attack.damage", "damage found per worst-case search", det=True),
        _h("store.commit_bytes", "bytes per committed run-store cell",
           det=True),
        # -- operational counters (vary with process topology) -------------
        _c("engine.builds", "attack engines constructed"),
        _c("kernel.dispatch.native", "gain kernels built on the native backing"),
        _c("kernel.dispatch.python", "gain kernels built on the python backing"),
        _c("store.cells_loaded", "cells served from a stored run prefix"),
        _c("store.cells_recomputed",
           "stored cells re-executed because their shard straddled the prefix"),
        # -- control-plane counters (always on) ----------------------------
        _c("runner.shard_retries",
           "shard attempts re-dispatched after a failure", always=True),
        _c("faults.injected", "fault-plan rules fired", always=True),
        _c("artifact.mmap_fallback",
           "mmap placement loads that fell back to the eager loader",
           always=True),
        _c("native.compiles",
           "native gain library loads (compiled or cache-reused)",
           always=True),
    )
}

_EVENT_CAP = 1024

_LOCK = threading.Lock()
_counters: Dict[str, int] = {}
_hists: Dict[str, Dict[str, Any]] = {}
_events: "deque[Dict[str, Any]]" = deque(maxlen=_EVENT_CAP)
_event_seq = 0
_enabled: Optional[bool] = None


def _env_enabled() -> bool:
    raw = os.environ.get("REPRO_METRICS", "0").strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off", ""):
        return False
    raise MetricsError(f"REPRO_METRICS must be boolean-like, got {raw!r}")


def metrics_enabled() -> bool:
    """Whether gated instruments record (``REPRO_METRICS`` / set_metrics)."""
    global _enabled
    if _enabled is None:
        _enabled = _env_enabled()
    return _enabled


def set_metrics(enabled: Optional[bool]) -> None:
    """Pin metrics on/off for this process; ``None`` re-reads the env."""
    global _enabled
    _enabled = None if enabled is None else bool(enabled)


def _instrument(name: str, kind: str) -> Instrument:
    inst = CATALOG.get(name)
    if inst is None:
        raise MetricsError(
            f"unknown instrument {name!r}; declare it in repro.obs.metrics."
            "CATALOG"
        )
    if inst.kind != kind:
        raise MetricsError(
            f"instrument {name!r} is a {inst.kind}, not a {kind}"
        )
    return inst


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to a counter (no-op when gated and metrics are off)."""
    inst = _instrument(name, "counter")
    if not inst.always and not metrics_enabled():
        return
    with _LOCK:
        _counters[name] = _counters.get(name, 0) + int(n)


def observe(name: str, value: float) -> None:
    """Record one observation into a histogram (power-of-two buckets)."""
    inst = _instrument(name, "histogram")
    if not inst.always and not metrics_enabled():
        return
    bucket = str(max(0, int(value)).bit_length())
    with _LOCK:
        hist = _hists.get(name)
        if hist is None:
            hist = {"count": 0, "sum": 0, "buckets": {}}
            _hists[name] = hist
        hist["count"] += 1
        hist["sum"] += int(value)
        hist["buckets"][bucket] = hist["buckets"].get(bucket, 0) + 1


def record_event(name: str, **fields: Any) -> None:
    """Record one structured control-plane event (always on, bounded)."""
    global _event_seq
    with _LOCK:
        _event_seq += 1
        _events.append({"seq": _event_seq, "event": name, "fields": fields})


def events() -> List[Dict[str, Any]]:
    """The retained structured events, oldest first."""
    with _LOCK:
        return [dict(entry) for entry in _events]


def counter_value(name: str) -> int:
    """Current value of one counter (0 when never recorded)."""
    _instrument(name, "counter")
    return _counters.get(name, 0)


def _copy_hists() -> Dict[str, Dict[str, Any]]:
    return {
        name: {
            "count": hist["count"],
            "sum": hist["sum"],
            "buckets": dict(hist["buckets"]),
        }
        for name, hist in _hists.items()
    }


def snapshot() -> Dict[str, Any]:
    """A full copy of the registry: counters, histograms, events."""
    with _LOCK:
        return {
            "counters": dict(_counters),
            "histograms": _copy_hists(),
            "events": [dict(entry) for entry in _events],
        }


def checkpoint() -> Dict[str, Any]:
    """An opaque mark for :func:`delta_since` / :func:`rollback`."""
    with _LOCK:
        return {
            "counters": dict(_counters),
            "histograms": _copy_hists(),
            "event_seq": _event_seq,
        }


def delta_since(mark: Dict[str, Any]) -> Dict[str, Any]:
    """Everything recorded since ``mark`` (zero entries dropped).

    The result is mergeable with :func:`merge_delta`.
    """
    with _LOCK:
        counters = {}
        base = mark["counters"]
        for name, value in _counters.items():
            diff = value - base.get(name, 0)
            if diff:
                counters[name] = diff
        hists = {}
        hist_base = mark["histograms"]
        for name, hist in _hists.items():
            before = hist_base.get(name, {"count": 0, "sum": 0, "buckets": {}})
            count_diff = hist["count"] - before["count"]
            if not count_diff:
                continue
            buckets = {}
            for bucket, n in hist["buckets"].items():
                diff = n - before["buckets"].get(bucket, 0)
                if diff:
                    buckets[bucket] = diff
            hists[name] = {
                "count": count_diff,
                "sum": hist["sum"] - before["sum"],
                "buckets": buckets,
            }
        return {
            "counters": counters,
            "histograms": hists,
            "events": [
                dict(entry)
                for entry in _events
                if entry["seq"] > mark["event_seq"]
            ],
        }


def delta_value(name: str, mark: Dict[str, Any]) -> int:
    """One counter's growth since ``mark``."""
    _instrument(name, "counter")
    return _counters.get(name, 0) - mark["counters"].get(name, 0)


def deterministic_delta(mark: Dict[str, Any]) -> Dict[str, Any]:
    """The manifest-grade snapshot: deterministic instruments only.

    Keys are sorted and zero values dropped, so for a fixed spec + seed
    the returned dict is bit-identical across gain backings, thread
    counts, worker counts, and chaos retries that succeed.
    """
    delta = delta_since(mark)
    counters = {
        name: delta["counters"][name]
        for name in sorted(delta["counters"])
        if CATALOG[name].deterministic
    }
    hists = {
        name: {
            "count": delta["histograms"][name]["count"],
            "sum": delta["histograms"][name]["sum"],
            "buckets": {
                bucket: delta["histograms"][name]["buckets"][bucket]
                for bucket in sorted(
                    delta["histograms"][name]["buckets"], key=int
                )
            },
        }
        for name in sorted(delta["histograms"])
        if CATALOG[name].deterministic
    }
    return {"counters": counters, "histograms": hists}


def merge_delta(delta: Dict[str, Any]) -> None:
    """Fold a worker-reported delta into this process's registry."""
    global _event_seq
    with _LOCK:
        for name, value in delta.get("counters", {}).items():
            _counters[name] = _counters.get(name, 0) + value
        for name, hist in delta.get("histograms", {}).items():
            mine = _hists.get(name)
            if mine is None:
                mine = {"count": 0, "sum": 0, "buckets": {}}
                _hists[name] = mine
            mine["count"] += hist["count"]
            mine["sum"] += hist["sum"]
            for bucket, n in hist["buckets"].items():
                mine["buckets"][bucket] = mine["buckets"].get(bucket, 0) + n
        for entry in delta.get("events", []):
            _event_seq += 1
            _events.append(
                {"seq": _event_seq, "event": entry["event"],
                 "fields": dict(entry.get("fields", {}))}
            )


def rollback(mark: Dict[str, Any]) -> None:
    """Discard a failed attempt's gated recordings; keep always-counters.

    Restores every gated counter/histogram to its ``mark`` value —
    the retry will re-record the work — while control-plane instruments
    (``always=True``) keep whatever the failed attempt added, because a
    retry *happened* even though its work was discarded.
    """
    with _LOCK:
        for name in list(_counters):
            if not CATALOG[name].always:
                base = mark["counters"].get(name)
                if base is None:
                    del _counters[name]
                else:
                    _counters[name] = base
        for name in list(_hists):
            base = mark["histograms"].get(name)
            if base is None:
                del _hists[name]
            else:
                _hists[name] = {
                    "count": base["count"],
                    "sum": base["sum"],
                    "buckets": dict(base["buckets"]),
                }


def reset_metrics() -> None:
    """Zero the whole registry (tests, benchmark isolation)."""
    global _event_seq
    with _LOCK:
        _counters.clear()
        _hists.clear()
        _events.clear()
        _event_seq = 0
