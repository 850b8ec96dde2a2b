"""Relational result/base tables for the two relational engines.

A :class:`RelTable` is schema (names) + rows (tuples). The columnar
executor asks for :meth:`RelTable.as_batch`, a dict of numpy arrays, which
is cached so base tables are converted once.
"""

from __future__ import annotations


import numpy as np

from repro.errors import SchemaError
from repro.cohort.result import format_cell as _fmt
from repro.table import ActivityTable


class RelTable:
    """An ordered bag of tuples with named columns."""

    def __init__(self, names: list[str], rows: list[tuple]):
        self.names = list(names)
        self.rows = [tuple(r) for r in rows]
        for row in self.rows:
            if len(row) != len(self.names):
                raise SchemaError(
                    f"row width {len(row)} != schema width "
                    f"{len(self.names)}")
        self._batch: dict[str, np.ndarray] | None = None

    @classmethod
    def from_activity_table(cls, table: ActivityTable) -> "RelTable":
        """Convert an activity table (values stay python-native)."""
        return cls(table.schema.names(), table.to_rows())

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list:
        idx = self.names.index(name)
        return [row[idx] for row in self.rows]

    def as_batch(self) -> dict[str, np.ndarray]:
        """Columnar view: one numpy array per column (cached)."""
        if self._batch is None:
            self._batch = {}
            for i, name in enumerate(self.names):
                values = [row[i] for row in self.rows]
                self._batch[name] = _as_column_array(values)
        return self._batch

    def renamed(self, names: list[str]) -> "RelTable":
        """The same rows under different column names."""
        if len(names) != len(self.names):
            raise SchemaError("renamed() needs one name per column")
        out = RelTable(names, self.rows)
        if self._batch is not None:
            out._batch = dict(zip(names, (self._batch[n]
                                          for n in self.names)))
        return out

    def to_text(self, max_rows: int = 25) -> str:
        """Simple ASCII rendering for examples and debugging."""
        shown = [tuple(_fmt(v) for v in row) for row in self.rows[:max_rows]]
        widths = [len(n) for n in self.names]
        for row in shown:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = "  ".join(n.ljust(widths[i])
                           for i, n in enumerate(self.names))
        lines = [header, "-" * len(header)]
        lines += ["  ".join(c.ljust(widths[i]) for i, c in enumerate(row))
                  for row in shown]
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def sorted(self) -> "RelTable":
        """Rows in a deterministic order (for comparisons in tests)."""
        return RelTable(self.names,
                        sorted(self.rows, key=lambda r: tuple(map(str, r))))


def _as_column_array(values: list) -> np.ndarray:
    if values and all(isinstance(v, bool) for v in values):
        return np.asarray(values, dtype=bool)
    if values and all(isinstance(v, int) and not isinstance(v, bool)
                      for v in values):
        return np.asarray(values, dtype=np.int64)
    if values and all(isinstance(v, (int, float))
                      and not isinstance(v, bool) for v in values):
        return np.asarray(values, dtype=np.float64)
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = v
    return arr
