"""Text rendering of figure data (series) for the benchmark harness.

The designed evaluation contains line "figures" (trust error vs interactions,
welfare vs exposure scale, hops vs network size, welfare over rounds).  The
benchmarks print each figure both as a data table (x, one column per series)
and as a crude ASCII chart, so the shape of the curves can be inspected
without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.exceptions import AnalysisError

__all__ = ["Series", "Figure"]


@dataclass
class Series:
    """One labelled line of a figure."""

    label: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise AnalysisError("xs and ys must have the same length")

    def add(self, x: float, y: float) -> None:
        self.xs.append(float(x))
        self.ys.append(float(y))

    def __len__(self) -> int:
        return len(self.xs)


class Figure:
    """A set of series sharing an x axis."""

    def __init__(self, title: str, x_label: str = "x", y_label: str = "y"):
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self._series: List[Series] = []

    def new_series(self, label: str) -> Series:
        series = Series(label=label)
        self._series.append(series)
        return series

    @property
    def series(self) -> List[Series]:
        return list(self._series)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_table(self) -> str:
        """Render the figure data as an aligned text table."""
        if not self._series:
            raise AnalysisError("figure has no series")
        xs = sorted({x for series in self._series for x in series.xs})
        header = [self.x_label] + [series.label for series in self._series]
        rows: List[List[str]] = []
        for x in xs:
            row = [f"{x:g}"]
            for series in self._series:
                lookup = dict(zip(series.xs, series.ys))
                row.append(f"{lookup[x]:.4f}" if x in lookup else "")
            rows.append(row)
        widths = [len(cell) for cell in header]
        for row in rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title]
        lines.append(
            " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(header))
        )
        lines.append("-+-".join("-" * width for width in widths))
        for row in rows:
            lines.append(
                " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
            )
        return "\n".join(lines)

    def render_ascii(self, width: int = 60, height: int = 15) -> str:
        """Render a crude ASCII chart of all series."""
        if not self._series or all(len(series) == 0 for series in self._series):
            raise AnalysisError("figure has no data to plot")
        if width < 10 or height < 5:
            raise AnalysisError("chart dimensions too small")
        all_x = [x for series in self._series for x in series.xs]
        all_y = [y for series in self._series for y in series.ys]
        x_min, x_max = min(all_x), max(all_x)
        y_min, y_max = min(all_y), max(all_y)
        x_span = (x_max - x_min) or 1.0
        y_span = (y_max - y_min) or 1.0
        grid = [[" " for _ in range(width)] for _ in range(height)]
        markers = "*o+x#@%&"
        for series_index, series in enumerate(self._series):
            marker = markers[series_index % len(markers)]
            for x, y in zip(series.xs, series.ys):
                column = int(round((x - x_min) / x_span * (width - 1)))
                row = int(round((y - y_min) / y_span * (height - 1)))
                grid[height - 1 - row][column] = marker
        lines = [f"{self.title}  ({self.y_label} vs {self.x_label})"]
        lines.append(f"{y_max:10.3f} +" + "".join(grid[0]))
        for row_cells in grid[1:-1]:
            lines.append(" " * 11 + "|" + "".join(row_cells))
        lines.append(f"{y_min:10.3f} +" + "".join(grid[-1]))
        lines.append(" " * 12 + f"{x_min:<10g}" + " " * max(0, width - 20) + f"{x_max:>10g}")
        legend = "  ".join(
            f"{markers[index % len(markers)]} {series.label}"
            for index, series in enumerate(self._series)
        )
        lines.append("legend: " + legend)
        return "\n".join(lines)

    def render(self, ascii_chart: bool = True) -> str:
        """Full rendering: data table plus (optionally) the ASCII chart."""
        parts = [self.render_table()]
        if ascii_chart:
            parts.append(self.render_ascii())
        return "\n\n".join(parts)

    def series_by_label(self, label: str) -> Series:
        for series in self._series:
            if series.label == label:
                return series
        raise AnalysisError(f"no series labelled {label!r}")
