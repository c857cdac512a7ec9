"""Fixed-width text rendering for the paper's tables and figure series.

The paper's evaluation is a set of dense numeric tables (Figs. 4, 9, 10) and
curve families (Figs. 2, 3, 5–8, 11). Figures render these as aligned text so
the recorded ``benchmarks/output/<fig>.txt`` files are directly comparable
against the paper; no plotting dependency is required.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


class TextTable:
    """An aligned text table with a header row and optional row labels."""

    def __init__(self, headers: Sequence[str], title: Optional[str] = None) -> None:
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add_row(self, cells: Iterable[object]) -> None:
        row = [_format_cell(cell) for cell in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.rjust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _format_cell(cell: object) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def format_grid(
    row_labels: Sequence[object],
    col_labels: Sequence[object],
    values: Sequence[Sequence[object]],
    corner: str = "",
    title: Optional[str] = None,
) -> str:
    """Render a labeled 2-D grid (the shape of the paper's Fig. 9 tables)."""
    if len(values) != len(row_labels):
        raise ValueError(
            f"{len(values)} value rows but {len(row_labels)} row labels"
        )
    table = TextTable([corner, *[str(c) for c in col_labels]], title=title)
    for label, row in zip(row_labels, values):
        if len(row) != len(col_labels):
            raise ValueError(
                f"row for {label!r} has {len(row)} cells but {len(col_labels)} columns"
            )
        table.add_row([label, *row])
    return table.render()
