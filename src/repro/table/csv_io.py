"""CSV import/export for activity tables.

The paper's raw dataset is a CSV of activity tuples; this module provides
the equivalent ingest path. The header row must match the schema's column
names (order-insensitive).
"""

from __future__ import annotations

import csv
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from repro.errors import BadValueError, SchemaError
from repro.schema import ActivitySchema, LogicalType, format_timestamp
from repro.table.activity import ActivityTable


def read_csv(source: str | Path | TextIO,
             schema: ActivitySchema) -> ActivityTable:
    """Load an activity table from ``source``: a path, or a text stream
    (an HTTP body in memory, say) opened with ``newline=""``.

    Rows come back in file order; the writer (:func:`repro.storage.
    compress`) is the one sort. Timestamp columns accept any format
    understood by :func:`repro.schema.parse_timestamp`.

    Raises:
        SchemaError: for a bad header or line, or a value its column
            cannot hold (naming ``file:line`` and the column);
            :class:`~repro.errors.PrimaryKeyError` for a repeated
            (Au, At, Ae) key.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as f:
            return _read_rows(f, str(source), schema)
    return _read_rows(source, getattr(source, "name", "<csv>"), schema)


def _read_rows(f: TextIO, where: str,
               schema: ActivitySchema) -> ActivityTable:
    reader = csv.reader(f)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{where}: empty CSV file") from None
    missing = [n for n in schema.names() if n not in header]
    if missing:
        raise SchemaError(f"{where}: missing columns {missing}")
    pick = itemgetter(*(header.index(n) for n in schema.names()))
    rows, lines = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise SchemaError(
                f"{where}:{lineno}: expected {len(header)} fields, "
                f"got {len(row)}")
        rows.append(pick(row))
        lines.append(lineno)
    try:
        table = ActivityTable.from_rows(schema, rows)
    except BadValueError as exc:
        raise BadValueError(f"{where}:{lines[exc.row]}: {exc}",
                            exc.row) from None
    table.check_primary_key()
    return table


def write_csv(table: ActivityTable, path: str | Path,
              timestamps_as_text: bool = True) -> None:
    """Write ``table`` to ``path`` with a header row."""
    schema = table.schema
    names = schema.names()
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(names)
        for row in table.iter_rows():
            out = []
            for name in names:
                value = row[name]
                if (timestamps_as_text
                        and schema.column(name).ltype
                        is LogicalType.TIMESTAMP):
                    value = format_timestamp(value)
                out.append(value)
            writer.writerow(out)
