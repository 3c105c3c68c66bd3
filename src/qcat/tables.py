"""Typed result tables with deterministic CSV serialization.

Numeric cells are written with Python's repr (shortest round-trip decimal),
rows are kept in sorted primary-key order, lines end with LF, and no field
ever needs quoting.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path


def format_cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    raise TypeError(f"unsupported cell type {type(v)!r}; split complex values into re/im")


class ResultTable(namedtuple("ResultTable", "schema columns rows")):
    """Ordered rows of typed columns under a named schema (``_replace`` and
    ``_make`` skip the row-width check)."""

    __slots__ = ()

    def __new__(cls, schema: str, columns: tuple[str, ...], rows: list[tuple]) -> "ResultTable":
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(
                    f"row width {len(row)} != column count {len(columns)} in {schema}"
                )
        return super().__new__(cls, schema, columns, rows)

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: Path) -> None:
        path.write_text(self.to_csv_text(), encoding="ascii", newline="\n")
