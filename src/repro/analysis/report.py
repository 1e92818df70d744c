"""Plain-text rendering of tables and curve families.

The experiment harness regenerates every table and figure of the paper as
text: tables as aligned columns, figures as labelled series (one row per
sweep point, one column per curve).  Keeping rendering here means every
experiment module and benchmark prints through the same two functions.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.common.errors import ValidationError
from repro.analysis.stats import MissCurve


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned text table.

    Args:
        headers: column names.
        rows: cell values; formatted with ``str`` (floats pre-format them).
        title: optional title line above the table.
    """
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(value))
            else:
                widths.append(len(value))

    def format_row(values: Sequence[str]) -> str:
        return "  ".join(value.ljust(widths[i]) for i, value in enumerate(values))

    lines = []
    if title:
        lines.append(title)
    lines.append(format_row(list(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append(format_row(row))
    return "\n".join(lines)


def render_series(
    curves: Sequence[MissCurve],
    title: str = "",
    x_header: str = "x",
    percent: bool = True,
) -> str:
    """Render a family of curves as a table: one column per curve.

    All curves must share the same sweep points (same x values in the same
    order) — which every figure in the paper does.
    """
    if not curves:
        return title
    first = curves[0]
    for curve in curves[1:]:
        if curve.xs() != first.xs():
            raise ValidationError(
                f"curve {curve.name!r} sweeps different x values than "
                f"{first.name!r}"
            )
    headers = [x_header] + [curve.name for curve in curves]
    rows: List[List[object]] = []
    for index, point in enumerate(first.points):
        row: List[object] = [point.display_label()]
        for curve in curves:
            value = curve.points[index].miss_ratio
            row.append(f"{value * 100:.2f}%" if percent else f"{value:.4f}")
        rows.append(row)
    return render_table(headers, rows, title=title)


def render_breakdown(
    categories: Sequence[str],
    columns: Sequence[str],
    values: Sequence[Sequence[float]],
    title: str = "",
) -> str:
    """Render a stacked-bar-style breakdown (Figure 12) as percentages.

    Args:
        categories: row labels (e.g. memory / l3 / mod-int / shr-int).
        columns: one label per configuration (e.g. ``2x4``, ``4x2``).
        values: ``values[c][r]`` is the fraction for column c, category r.
    """
    rows = []
    for r, category in enumerate(categories):
        row: List[object] = [category]
        for c in range(len(columns)):
            row.append(f"{values[c][r] * 100:.1f}%")
        rows.append(row)
    return render_table(["where satisfied"] + list(columns), rows, title=title)
