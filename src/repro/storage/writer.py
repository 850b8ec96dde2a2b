"""Compressing activity tables into the COHANA storage format.

The writer implements Section 4.1 end to end, on integer ids: it
dictionary-codes each string column once, in the input order (the
global, table-level dictionary is the sorted distinct values and a
value's id is its position), takes the global ranges, sorts the ids by
primary key, partitions horizontally on user boundaries, and encodes
each chunk's columns. Every chunk also gets a per-column
:class:`~repro.storage.zonemap.ZoneMap` (coded-domain min/max, distinct
count, null count), persisted in the ``.cohana`` file and consulted by
the scheduler's pruning step before any decode.

Each pass is linear in the rows or close to it. The primary-key sort
(:func:`~repro.table.activity.primary_key_order`) is one stable
``argsort`` of an int64 key folded from user id, time offset and action
id, which input already in key order sorts in one run; only a key
domain of 2**63 or more (times spread over most of the int64 range)
falls back to ``np.lexsort`` of the three columns. Chunk dictionaries
and zone-map distinct counts come from
:func:`~repro.table.activity.factorize`, and bit packing ORs one slot
of every word at a time (:func:`~repro.storage.bitpack.pack`).
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
from repro.table.activity import dictionary_code, primary_key_order

#: Default target tuples per chunk — the paper's choice of 256K rows,
#: scaled down is often preferable for the small synthetic datasets; the
#: benchmarks sweep this explicitly (Figures 6 and 7).
DEFAULT_CHUNK_ROWS = 256 * 1024


def compress(table: ActivityTable,
             target_chunk_rows: int = DEFAULT_CHUNK_ROWS
             ) -> CompressedActivityTable:
    """Compress ``table`` into the chunked columnar format.

    Args:
        table: the activity table to persist, in any row order; rows
            with equal primary keys keep their order.
        target_chunk_rows: soft upper bound on tuples per chunk; chunks
            close at the first user boundary at or past this size, so a
            user's tuples never span chunks.

    Raises:
        StorageError: if ``target_chunk_rows`` is not positive.
    """
    if target_chunk_rows <= 0:
        raise StorageError(
            f"target_chunk_rows must be positive, got {target_chunk_rows}")
    schema = table.schema

    global_dicts: dict[str, GlobalDictionary] = {}
    global_ranges: dict[str, GlobalRange] = {}
    encoded: dict[str, np.ndarray] = {}
    for spec in schema:
        column = table.column(spec.name)
        if spec.ltype is LogicalType.STRING:
            values, encoded[spec.name] = dictionary_code(column)
            global_dicts[spec.name] = GlobalDictionary(tuple(values))
        elif spec.ltype.is_integer_like:
            global_ranges[spec.name] = GlobalRange.from_column(column)
            encoded[spec.name] = np.asarray(column, dtype=np.int64)
        else:
            encoded[spec.name] = np.asarray(column, dtype=np.float64)
    order = primary_key_order(encoded[schema.user.name],
                              encoded[schema.time.name],
                              encoded[schema.action.name])
    encoded = {name: values[order] for name, values in encoded.items()}

    chunks = [
        _encode_chunk(schema, encoded, index, start, stop)
        for index, (start, stop)
        in enumerate(_chunk_boundaries(encoded[schema.user.name],
                                       target_chunk_rows))
    ]
    return CompressedActivityTable(
        schema=schema,
        global_dicts=global_dicts,
        global_ranges=global_ranges,
        chunks=chunks,
        target_chunk_rows=target_chunk_rows,
    )


def _chunk_boundaries(user_ids: np.ndarray,
                      target_chunk_rows: int) -> list[tuple[int, int]]:
    """Split the sorted rows on user boundaries: a chunk closes at the
    first user boundary at or past ``target_chunk_rows`` rows."""
    n = len(user_ids)
    block_stops = np.append(
        np.flatnonzero(user_ids[1:] != user_ids[:-1]) + 1, n)
    boundaries: list[tuple[int, int]] = []
    start = 0
    while start < n:
        cut = np.searchsorted(block_stops, start + target_chunk_rows)
        stop = int(block_stops[min(cut, len(block_stops) - 1)])
        boundaries.append((start, stop))
        start = stop
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
