"""Terminal line plots for the figure benchmarks.

The paper's evaluation is figures as much as tables; these helpers render
series as ASCII line/scatter charts so each ``benchmarks/`` target can
print the same *curve* the paper plots, not only summary rows.
"""

from __future__ import annotations

from typing import Sequence


def line_plot(
    series: dict[str, Sequence[tuple[float, float]]],
    width: int = 68,
    height: int = 14,
    title: str | None = None,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Multi-series ASCII scatter/line chart.

    ``series`` maps a label to (x, y) points. Each series is drawn with
    its own glyph; axes are annotated with min/max values. The plot is
    intentionally simple — enough to see knees, crossovers, and trends in
    a terminal or CI log.
    """
    glyphs = "*o+x#@%&"
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return (title or "") + "\n(no data)"
    xs = [x for x, __ in points]
    ys = [y for __, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    if x_high == x_low:
        x_high = x_low + 1.0
    if y_high == y_low:
        y_high = y_low + 1.0

    grid = [[" "] * width for __ in range(height)]
    for index, (label, pts) in enumerate(series.items()):
        glyph = glyphs[index % len(glyphs)]
        for x, y in pts:
            column = round((x - x_low) / (x_high - x_low) * (width - 1))
            row = round((y - y_low) / (y_high - y_low) * (height - 1))
            grid[height - 1 - row][column] = glyph

    lines = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(y_label)
    top_label = f"{y_high:g}"
    bottom_label = f"{y_low:g}"
    margin = max(len(top_label), len(bottom_label))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(margin)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix} |{''.join(row)}")
    axis = " " * margin + " +" + "-" * width
    lines.append(axis)
    x_axis = f"{x_low:g}".ljust(width // 2) + f"{x_high:g}".rjust(width // 2)
    lines.append(" " * (margin + 2) + x_axis + (f"  {x_label}" if x_label else ""))
    legend = "   ".join(
        f"{glyphs[index % len(glyphs)]} {label}" for index, label in enumerate(series)
    )
    lines.append(" " * (margin + 2) + legend)
    return "\n".join(lines)
