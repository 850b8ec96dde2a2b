"""CSV import/export for activity tables.

The paper's raw dataset is a CSV of activity tuples; this module provides
the equivalent ingest path. The header row must match the schema's column
names (order-insensitive).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TextIO

from repro.errors import SchemaError
from repro.schema import ActivitySchema, LogicalType, format_timestamp
from repro.table.activity import ActivityTable
from repro.table.builder import ActivityTableBuilder


def read_csv(source: str | Path | TextIO, schema: ActivitySchema,
             sort: bool = True) -> ActivityTable:
    """Load an activity table from ``source``: a path, or a text stream
    (an HTTP body in memory, say) opened with ``newline=""``.

    Timestamp columns accept any format understood by
    :func:`repro.schema.parse_timestamp`.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as f:
            return _read_rows(f, str(source), schema, sort)
    return _read_rows(source, getattr(source, "name", "<csv>"), schema,
                      sort)


def _read_rows(f: TextIO, where: str, schema: ActivitySchema,
               sort: bool) -> ActivityTable:
    reader = csv.reader(f)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{where}: empty CSV file") from None
    missing = [n for n in schema.names() if n not in header]
    if missing:
        raise SchemaError(f"{where}: missing columns {missing}")
    positions = [header.index(n) for n in schema.names()]
    builder = ActivityTableBuilder(schema)
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise SchemaError(
                f"{where}:{lineno}: expected {len(header)} fields, "
                f"got {len(row)}")
        builder.append_row([row[p] for p in positions])
    return builder.build(sort=sort)


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
