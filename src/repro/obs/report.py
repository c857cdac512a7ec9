"""Renderers and validators for metrics snapshots and span traces.

Text rendering backs ``repro stats`` and the ``--stats`` flags; the span
schema validator backs ``repro stats --validate`` and the CI obs-smoke
job, which asserts every exported JSONL line against :data:`SPAN_FIELDS`
before trusting a trace.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping

from repro.obs.metrics import CATALOG
from repro.util.tables import TextTable

__all__ = [
    "SPAN_FIELDS",
    "validate_span",
    "load_trace",
    "render_metrics",
    "metrics_json",
]

#: The exported span record schema: field -> accepted types. ``parent``
#: additionally accepts None (a root span).
SPAN_FIELDS: Dict[str, tuple] = {
    "name": (str,),
    "ts": (int, float),
    "dur": (int, float),
    "pid": (int,),
    "seq": (int,),
    "parent": (int, type(None)),
    "depth": (int,),
    "attrs": (dict,),
}


def validate_span(record: Any) -> None:
    """Raise ``ValueError`` unless ``record`` is a well-formed span."""
    if not isinstance(record, dict):
        raise ValueError(f"span record must be an object, got {type(record).__name__}")
    for field, types in SPAN_FIELDS.items():
        if field not in record:
            raise ValueError(f"span record is missing {field!r}")
        value = record[field]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ValueError(
                f"span field {field!r} has type {type(value).__name__}"
            )
    extra = set(record) - set(SPAN_FIELDS)
    if extra:
        raise ValueError(f"span record has unknown fields {sorted(extra)}")
    if record["dur"] < 0:
        raise ValueError(f"span duration is negative: {record['dur']}")
    if record["depth"] < 0:
        raise ValueError(f"span depth is negative: {record['depth']}")
    if (record["parent"] is None) != (record["depth"] == 0):
        raise ValueError(
            "span parent/depth disagree: root spans (depth 0) must have "
            "parent null and nested spans a parent id"
        )


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse and validate a JSONL trace; raises ``ValueError`` with line no."""
    records: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            try:
                validate_span(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            records.append(record)
    return records


def _describe(name: str) -> str:
    inst = CATALOG.get(name)
    return inst.description if inst is not None else ""


def render_metrics(
    snapshot: Mapping[str, Any], title: str = "metrics"
) -> str:
    """The text report for a registry snapshot or delta."""
    sections: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        table = TextTable(["counter", "value", "description"], title=title)
        for name in sorted(counters):
            table.add_row([name, counters[name], _describe(name)])
        sections.append(table.render())
    histograms = snapshot.get("histograms", {})
    if histograms:
        table = TextTable(["histogram", "count", "sum", "mean", "description"])
        for name in sorted(histograms):
            hist = histograms[name]
            mean = hist["sum"] / hist["count"] if hist["count"] else 0.0
            table.add_row(
                [name, hist["count"], hist["sum"], f"{mean:.1f}", _describe(name)]
            )
        sections.append(table.render())
    events = snapshot.get("events", [])
    if events:
        lines = ["events:"]
        for entry in events:
            fields = " ".join(
                f"{key}={value!r}" for key, value in sorted(entry["fields"].items())
            )
            lines.append(f"  {entry['event']} {fields}".rstrip())
        sections.append("\n".join(lines))
    if not sections:
        return f"{title}: (nothing recorded)"
    return "\n\n".join(sections)


def metrics_json(snapshot: Mapping[str, Any]) -> str:
    """The JSON form of a snapshot (sorted keys, stable across processes)."""
    return json.dumps(snapshot, sort_keys=True, indent=1)
