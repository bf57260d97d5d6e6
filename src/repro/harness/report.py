"""ASCII reporting: experiment tables and paper-vs-measured rows."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = ["format_table", "paper_vs_measured"]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str = "",
    float_fmt: str = "{:.2f}",
) -> str:
    """Render a fixed-width ASCII table."""
    str_rows: list[list[str]] = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(float_fmt.format(cell))
            else:
                cells.append(str(cell))
        str_rows.append(cells)
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def paper_vs_measured(
    entries: Sequence[tuple[str, str, str, bool]], title: str = ""
) -> str:
    """Render (quantity, paper value, measured value, shape-holds) rows."""
    rows = [
        (name, paper, measured, "yes" if ok else "NO")
        for (name, paper, measured, ok) in entries
    ]
    return format_table(
        ["quantity", "paper", "measured", "shape holds"], rows, title=title
    )
