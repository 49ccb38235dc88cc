"""Plain-text tables for experiment output.

The benchmark harness prints the regenerated tables in a fixed-width format
(and can emit CSV) so the paper-versus-measured comparison can be read
straight off the benchmark logs and ``benchmarks/results/*.txt``.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from repro.exceptions import AnalysisError

__all__ = ["Table"]


class Table:
    """A small column-oriented table with text and CSV rendering."""

    def __init__(self, columns: Sequence[str], title: Optional[str] = None):
        if not columns:
            raise AnalysisError("a table needs at least one column")
        if len(set(columns)) != len(columns):
            raise AnalysisError("column names must be unique")
        self._columns: List[str] = list(columns)
        self._rows: List[List[Any]] = []
        self.title = title

    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    @property
    def rows(self) -> List[List[Any]]:
        return [list(row) for row in self._rows]

    def __len__(self) -> int:
        return len(self._rows)

    def add_row(self, *values: Any, **named: Any) -> None:
        """Append a row given positionally or by column name."""
        if values and named:
            raise AnalysisError("pass row values positionally or by name, not both")
        if named:
            unknown = set(named) - set(self._columns)
            if unknown:
                raise AnalysisError(f"unknown columns: {sorted(unknown)}")
            row = [named.get(column, "") for column in self._columns]
        else:
            if len(values) != len(self._columns):
                raise AnalysisError(
                    f"expected {len(self._columns)} values, got {len(values)}"
                )
            row = list(values)
        self._rows.append(row)

    def column(self, name: str) -> List[Any]:
        """Values of one column, in row order."""
        if name not in self._columns:
            raise AnalysisError(f"unknown column {name!r}")
        index = self._columns.index(name)
        return [row[index] for row in self._rows]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    @staticmethod
    def _format_cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def render(self) -> str:
        """Fixed-width text rendering."""
        formatted_rows = [
            [self._format_cell(value) for value in row] for row in self._rows
        ]
        widths = [len(column) for column in self._columns]
        for row in formatted_rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = " | ".join(
            column.ljust(widths[index]) for index, column in enumerate(self._columns)
        )
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for row in formatted_rows:
            lines.append(
                " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Comma-separated rendering (no quoting; cells must not contain commas)."""
        lines = [",".join(self._columns)]
        for row in self._rows:
            lines.append(",".join(self._format_cell(value) for value in row))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
