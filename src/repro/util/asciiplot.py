"""ASCII line plots for the paper's curve figures.

The evaluation figures (2, 3, 5–8, 11) are curve families. Tables carry
the exact numbers; these plots give the *shape* at a glance directly in
terminal output and in ``benchmarks/output/<fig>.txt``, with no plotting
dependency.

Rendering model: a fixed character grid, one glyph per series (``*+ox#@``),
linear x/y scaling with padded bounds, y-axis labels on the left, x-axis
labels underneath, and a legend line. Overlapping points show the glyph of
the later series (documented, deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

GLYPHS = "*+ox#@%&"


@dataclass(frozen=True)
class Series:
    """One named curve: monotone-x point list."""

    name: str
    points: Tuple[Tuple[float, float], ...]

    @staticmethod
    def from_pairs(name: str, pairs: Sequence[Tuple[float, float]]) -> "Series":
        if not pairs:
            raise ValueError(f"series {name!r} has no points")
        return Series(name=name, points=tuple((float(x), float(y)) for x, y in pairs))


def _bounds(
    series: Sequence[Series],
    y_min: Optional[float],
    y_max: Optional[float],
) -> Tuple[float, float, float, float]:
    xs = [x for s in series for x, _ in s.points]
    ys = [y for s in series for _, y in s.points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y = min(ys) if y_min is None else y_min
    hi_y = max(ys) if y_max is None else y_max
    if hi_x == lo_x:
        hi_x = lo_x + 1.0
    if hi_y == lo_y:
        hi_y = lo_y + 1.0
    return lo_x, hi_x, lo_y, hi_y


def line_plot(
    series: Sequence[Series],
    width: int = 60,
    height: int = 16,
    title: Optional[str] = None,
    x_label: str = "",
    y_min: Optional[float] = None,
    y_max: Optional[float] = None,
) -> str:
    """Render curves onto a ``width`` x ``height`` character grid."""
    if not series:
        raise ValueError("need at least one series")
    if width < 8 or height < 4:
        raise ValueError(f"grid too small: {width}x{height}")
    if len(series) > len(GLYPHS):
        raise ValueError(f"at most {len(GLYPHS)} series supported")

    lo_x, hi_x, lo_y, hi_y = _bounds(series, y_min, y_max)
    grid = [[" "] * width for _ in range(height)]

    def to_col(x: float) -> int:
        frac = (x - lo_x) / (hi_x - lo_x)
        return min(width - 1, max(0, round(frac * (width - 1))))

    def to_row(y: float) -> int:
        frac = (y - lo_y) / (hi_y - lo_y)
        return min(height - 1, max(0, round((1.0 - frac) * (height - 1))))

    for glyph, entry in zip(GLYPHS, series):
        previous: Optional[Tuple[int, int]] = None
        for x, y in entry.points:
            col, row = to_col(x), to_row(y)
            if previous is not None:
                _draw_segment(grid, previous, (col, row), glyph)
            grid[row][col] = glyph
            previous = (col, row)

    label_width = max(len(_fmt(lo_y)), len(_fmt(hi_y)))
    lines: List[str] = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = _fmt(hi_y)
        elif row_index == height - 1:
            label = _fmt(lo_y)
        else:
            label = ""
        lines.append(f"{label.rjust(label_width)} |{''.join(row)}")
    axis = "-" * width
    lines.append(f"{' ' * label_width} +{axis}")
    left = _fmt(lo_x)
    right = _fmt(hi_x)
    gap = max(1, width - len(left) - len(right))
    lines.append(f"{' ' * label_width}  {left}{' ' * gap}{right}  {x_label}")
    legend = "   ".join(
        f"{glyph}={entry.name}" for glyph, entry in zip(GLYPHS, series)
    )
    lines.append(f"{' ' * label_width}  legend: {legend}")
    return "\n".join(lines)


def _draw_segment(grid, start, end, glyph) -> None:
    """Bresenham-style interpolation between consecutive points."""
    (c0, r0), (c1, r1) = start, end
    steps = max(abs(c1 - c0), abs(r1 - r0))
    for i in range(1, steps):
        col = round(c0 + (c1 - c0) * i / steps)
        row = round(r0 + (r1 - r0) * i / steps)
        if grid[row][col] == " ":
            grid[row][col] = "."


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.3g}"


def cdf_plot(
    name_to_values: Sequence[Tuple[str, Sequence[float]]],
    width: int = 60,
    height: int = 16,
    title: Optional[str] = None,
    x_label: str = "value",
) -> str:
    """Empirical CDFs of one or more samples (the shape of Figs. 5–6)."""
    series = []
    for name, values in name_to_values:
        if not values:
            raise ValueError(f"sample {name!r} is empty")
        ordered = sorted(values)
        n = len(ordered)
        points = [(v, (i + 1) / n) for i, v in enumerate(ordered)]
        series.append(Series.from_pairs(name, points))
    return line_plot(
        series,
        width=width,
        height=height,
        title=title,
        x_label=x_label,
        y_min=0.0,
        y_max=1.0,
    )
