"""Plain-text tables for experiment reports, and the one result type.

The benchmark harness prints the same rows/series the paper reports; these
helpers format them as aligned monospace tables suitable for terminals and
logs.  :class:`Table` is what every row-shaped experiment returns (see
ARCHITECTURE.md, "Layer 3").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence

__all__ = ["Table", "format_table", "format_series"]


def _fmt(value: Any, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    precision: int = 3,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned text table.

    Floats are fixed to ``precision`` decimals; column widths auto-size.
    """
    rendered_rows = [[_fmt(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in rendered_rows)
    return "\n".join(out)


@dataclass(frozen=True)
class Table:
    """One experiment's result: the cells it prints plus text after them.

    ``rows`` hold the cells as :func:`format_table` receives them, so a
    claim reads the same value the report prints (``column(name)``).
    """

    title: str
    columns: Sequence[str]
    rows: Sequence[Sequence[Any]]
    precision: int = 3
    notes: str = ""

    def column(self, name: str) -> List[Any]:
        """Every row's cell under the header ``name``."""
        if name not in self.columns:
            raise ValueError(f"no column {name!r}; columns: {list(self.columns)}")
        i = list(self.columns).index(name)
        return [row[i] for row in self.rows]

    def report(self) -> str:
        table = format_table(self.columns, self.rows, self.precision, self.title)
        return table + self.notes


def format_series(
    name: str,
    values: Sequence[float],
    stride: int = 1,
    precision: int = 6,
    max_points: int = 25,
) -> str:
    """Render a numeric series as ``t: value`` lines, subsampled."""
    n = len(values)
    if n == 0:
        return f"{name}: (empty)"
    effective_stride = max(stride, (n + max_points - 1) // max_points)
    lines = [f"{name}:"]
    for t in range(0, n, effective_stride):
        lines.append(f"  t={t:>6d}  {values[t]:.{precision}f}")
    if (n - 1) % effective_stride != 0:
        lines.append(f"  t={n - 1:>6d}  {values[n - 1]:.{precision}f}")
    return "\n".join(lines)
