"""Compressing activity tables into the COHANA storage format.

The writer implements Section 4.1 end to end: sort by primary key, build
the global (table-level) dictionaries and ranges, partition horizontally on
user boundaries, and encode each chunk's columns. Every chunk also gets a
per-column :class:`~repro.storage.zonemap.ZoneMap` (coded-domain min/max,
distinct count, null count), persisted in the ``.cohana`` file and
consulted by the scheduler's pruning step before any decode.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.schema import ColumnRole, LogicalType
from repro.storage.chunk import Chunk
from repro.storage.delta import GlobalRange, encode_chunk_integers
from repro.storage.dictionary import GlobalDictionary, encode_chunk_strings
from repro.storage.raw import RawFloatColumn
from repro.storage.reader import CompressedActivityTable
from repro.storage.rle import encode_users
from repro.storage.zonemap import build_zone_maps
from repro.table import ActivityTable

#: Default target tuples per chunk — the paper's choice of 256K rows,
#: scaled down is often preferable for the small synthetic datasets; the
#: benchmarks sweep this explicitly (Figures 6 and 7).
DEFAULT_CHUNK_ROWS = 256 * 1024


def compress(table: ActivityTable,
             target_chunk_rows: int = DEFAULT_CHUNK_ROWS,
             assume_sorted: bool = False) -> CompressedActivityTable:
    """Compress ``table`` into the chunked columnar format.

    Args:
        table: the activity table to persist.
        target_chunk_rows: soft upper bound on tuples per chunk; chunks
            close at the first user boundary at or past this size, so a
            user's tuples never span chunks.
        assume_sorted: skip the primary-key sort when the caller knows the
            table is already in (Au, At, Ae) order.

    Raises:
        StorageError: if ``target_chunk_rows`` is not positive.
    """
    if target_chunk_rows <= 0:
        raise StorageError(
            f"target_chunk_rows must be positive, got {target_chunk_rows}")
    if not assume_sorted:
        table = table.sorted_by_primary_key()
    schema = table.schema

    global_dicts: dict[str, GlobalDictionary] = {}
    global_ranges: dict[str, GlobalRange] = {}
    encoded: dict[str, np.ndarray] = {}
    for spec in schema:
        column = table.column(spec.name)
        if spec.ltype is LogicalType.STRING:
            gdict = GlobalDictionary.from_column(column.tolist())
            global_dicts[spec.name] = gdict
            encoded[spec.name] = gdict.encode(column.tolist())
        elif spec.ltype.is_integer_like:
            global_ranges[spec.name] = GlobalRange.from_column(column)
            encoded[spec.name] = np.asarray(column, dtype=np.int64)
        else:
            encoded[spec.name] = np.asarray(column, dtype=np.float64)

    chunks = [
        _encode_chunk(schema, encoded, index, start, stop)
        for index, (start, stop)
        in enumerate(_chunk_boundaries(table, target_chunk_rows))
    ]
    return CompressedActivityTable(
        schema=schema,
        global_dicts=global_dicts,
        global_ranges=global_ranges,
        chunks=chunks,
        target_chunk_rows=target_chunk_rows,
    )


def _chunk_boundaries(table: ActivityTable,
                      target_chunk_rows: int) -> list[tuple[int, int]]:
    """Split row range on user boundaries near the target chunk size."""
    boundaries: list[tuple[int, int]] = []
    chunk_start = None
    for _, start, stop in table.user_blocks():
        if chunk_start is None:
            chunk_start = start
        if stop - chunk_start >= target_chunk_rows:
            boundaries.append((chunk_start, stop))
            chunk_start = None
    if chunk_start is not None:
        boundaries.append((chunk_start, len(table)))
    return boundaries


def _encode_chunk(schema, encoded: dict[str, np.ndarray], index: int,
                  start: int, stop: int) -> Chunk:
    user_name = schema.user.name
    columns = {}
    for spec in schema:
        if spec.role is ColumnRole.USER:
            continue
        segment = encoded[spec.name][start:stop]
        if spec.ltype is LogicalType.STRING:
            columns[spec.name] = encode_chunk_strings(segment)
        elif spec.ltype.is_integer_like:
            columns[spec.name] = encode_chunk_integers(segment)
        else:
            columns[spec.name] = RawFloatColumn.encode(segment)
    return Chunk(
        index=index,
        n_rows=stop - start,
        users=encode_users(encoded[user_name][start:stop]),
        columns=columns,
        zone_maps=build_zone_maps(columns),
    )
