"""``repro.obs`` — zero-dependency observability for the whole stack.

Four small pieces, composable and individually optional:

* :mod:`repro.obs.metrics` — a process-wide, fork-aware registry of
  named counters/histograms/events with a strict catalog and a
  hard split between *deterministic* instruments (semantic work counts,
  bit-identical across backings/workers/successful retries —
  snapshotted into run-store manifests and pinned by tests) and *ops*
  instruments (kernel dispatch, retries, fault fires — reported, never
  pinned).
  Off by default; ``REPRO_METRICS=1`` / ``--stats`` turns the gated
  instruments on, control-plane counters record always.
* :mod:`repro.obs.trace` — nestable timing spans with a ring buffer
  and a fork-safe JSONL exporter (``REPRO_TRACE=<path>`` / ``--trace``),
  emitted at kernel dispatch, engine attack, shard run, sim strike,
  store commit, and native compile sites.
* :mod:`repro.obs.profile` — a sampling-free profiler aggregating span
  records into a self/cumulative time table.
* :mod:`repro.obs.report` — text/JSON renderers, the span schema
  validator, and the machinery behind ``repro stats``.

This package imports nothing from the rest of ``repro`` (stdlib plus
``repro.util.tables`` only), so every layer can instrument itself
without import cycles.
"""

from repro.obs.metrics import (
    CATALOG,
    Instrument,
    MetricsError,
    checkpoint,
    count,
    counter_value,
    delta_since,
    delta_value,
    deterministic_delta,
    events,
    merge_delta,
    metrics_enabled,
    observe,
    record_event,
    reset_metrics,
    rollback,
    set_metrics,
    snapshot,
)
from repro.obs.trace import (
    TRACE_RING_CAP,
    clear_trace,
    configure_trace,
    reset_trace,
    span,
    trace_enabled,
    trace_path,
    trace_spans,
)

__all__ = [
    "CATALOG",
    "Instrument",
    "MetricsError",
    "checkpoint",
    "count",
    "counter_value",
    "delta_since",
    "delta_value",
    "deterministic_delta",
    "events",
    "merge_delta",
    "metrics_enabled",
    "observe",
    "record_event",
    "reset_metrics",
    "rollback",
    "set_metrics",
    "snapshot",
    "TRACE_RING_CAP",
    "clear_trace",
    "configure_trace",
    "reset_trace",
    "span",
    "trace_enabled",
    "trace_path",
    "trace_spans",
]
