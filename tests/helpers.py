"""Shared test helpers: the paper's Table 1 example, and the writer's
row-by-row reference algorithm.

Importable as ``from helpers import ...`` (pytest puts ``tests/`` on
``sys.path`` when collecting).
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import numpy as np

from repro.errors import EncodingError
from repro.schema import ActivitySchema, ColumnRole, LogicalType
from repro.storage.bitpack import PackedArray, bits_needed
from repro.storage.chunk import Chunk
from repro.storage.delta import DeltaEncodedColumn, GlobalRange
from repro.storage.dictionary import DictEncodedColumn, GlobalDictionary
from repro.storage.raw import RawFloatColumn
from repro.storage.reader import CompressedActivityTable
from repro.storage.rle import RleColumn
from repro.storage.zonemap import ZoneMap
from repro.table import ActivityTable

#: The paper's Table 1 (player / time / action / role / country / gold).
TABLE1_ROWS = [
    ("001", "2013/05/19:1000", "launch", "dwarf", "Australia", 0),
    ("001", "2013/05/20:0800", "shop", "dwarf", "Australia", 50),
    ("001", "2013/05/20:1400", "shop", "dwarf", "Australia", 100),
    ("001", "2013/05/21:1400", "shop", "assassin", "Australia", 50),
    ("001", "2013/05/22:0900", "fight", "assassin", "Australia", 0),
    ("002", "2013/05/20:0900", "launch", "wizard", "United States", 0),
    ("002", "2013/05/21:1500", "shop", "wizard", "United States", 30),
    ("002", "2013/05/22:1700", "shop", "wizard", "United States", 40),
    ("003", "2013/05/20:1000", "launch", "bandit", "China", 0),
    ("003", "2013/05/21:1000", "fight", "bandit", "China", 0),
]


def make_game_schema() -> ActivitySchema:
    """The running-example schema used throughout the paper."""
    return ActivitySchema.build(
        user="player", time="time", action="action",
        dimensions={"role": LogicalType.STRING,
                    "country": LogicalType.STRING},
        measures={"gold": LogicalType.INT},
    )


def make_table1() -> ActivityTable:
    """The paper's Table 1 as a sorted activity table."""
    return ActivityTable.from_rows(make_game_schema(), TABLE1_ROWS)


def fully_pruned_shards(shards, query, **plan_options) -> int:
    """How many of ``shards`` a read of the bound ``query`` prunes
    whole (every chunk, or the birth action absent): the shards
    ``ExecStats`` counts neither scanned nor reused."""
    from repro.cohana.pipeline import ChunkScheduler
    from repro.cohana.planner import plan_query

    return sum(not ChunkScheduler(
        shard, plan_query(query, shard, **plan_options), "vectorized",
    ).tasks() for shard in shards)


def worker_pids() -> set[int]:
    """Pids of this process's live children: the ``processes``
    backend's persistent scan workers."""
    return {child.pid for child in multiprocessing.active_children()}


def kill_own_process_scan(table, chunk, plan):
    """A chunk kernel whose worker is SIGKILLed mid-task. Only ever
    run it with ``backend='processes'``."""
    os.kill(os.getpid(), signal.SIGKILL)


# ---------------------------------------------------------------------------
# The writer's reference: the row-by-row algorithm whose bytes
# ``repro.storage.writer.compress`` must reproduce exactly. It sorts row
# indices with a Python key, builds each dictionary from the sorted
# column and cuts chunks walking user blocks. It encodes each chunk with
# its own copies of the segment encoders, none of them the writer's: a
# sorted ``np.unique`` per chunk dictionary and zone-map count, and bit
# packing by ``np.bitwise_or.at``, one value at a time.
# ---------------------------------------------------------------------------


def reference_sorted_by_primary_key(table: ActivityTable) -> ActivityTable:
    """``table`` sorted by (Au, At, Ae) with Python's stable sort."""
    u = table.users
    t = table.times
    a = table.actions
    order = sorted(range(len(table)),
                   key=lambda i: (u[i], int(t[i]), a[i]))
    return table.take(np.asarray(order, dtype=np.int64))


def reference_compress(table: ActivityTable,
                       target_chunk_rows: int) -> CompressedActivityTable:
    """What ``compress(table, target_chunk_rows)`` returns, computed
    row by row."""
    table = reference_sorted_by_primary_key(table)
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
        _reference_encode_chunk(schema, encoded, index, start, stop)
        for index, (start, stop)
        in enumerate(_reference_chunk_boundaries(table, target_chunk_rows))
    ]
    return CompressedActivityTable(
        schema=schema,
        global_dicts=global_dicts,
        global_ranges=global_ranges,
        chunks=chunks,
        target_chunk_rows=target_chunk_rows,
    )


def _reference_chunk_boundaries(table: ActivityTable,
                                target_chunk_rows: int
                                ) -> list[tuple[int, int]]:
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


def _reference_encode_chunk(schema, encoded: dict[str, np.ndarray],
                            index: int, start: int, stop: int) -> Chunk:
    user_name = schema.user.name
    columns = {}
    for spec in schema:
        if spec.role is ColumnRole.USER:
            continue
        segment = encoded[spec.name][start:stop]
        if spec.ltype is LogicalType.STRING:
            columns[spec.name] = _reference_encode_strings(segment)
        elif spec.ltype.is_integer_like:
            columns[spec.name] = _reference_encode_integers(segment)
        else:
            columns[spec.name] = RawFloatColumn.encode(segment)
    return Chunk(
        index=index,
        n_rows=stop - start,
        users=_reference_encode_users(encoded[user_name][start:stop]),
        columns=columns,
        zone_maps={name: _reference_zone_map(col)
                   for name, col in columns.items()},
    )


def reference_pack(values, bit_width: int | None = None) -> PackedArray:
    """``pack(values, bit_width)``, one value at a time: value ``i``
    shifted by ``(i % k) * bit_width`` is ORed into word ``i // k``."""
    arr = np.asarray(values)
    if arr.dtype != np.uint64:
        arr = np.asarray(arr, dtype=np.int64)
        if arr.size and int(arr.min()) < 0:
            raise EncodingError("bit packing requires non-negative values")
    if bit_width is None:
        bit_width = bits_needed(int(arr.max()) if arr.size else 0)
    k = 64 // bit_width
    n_words = (arr.size + k - 1) // k
    words = np.zeros(n_words, dtype=np.uint64)
    if arr.size:
        positions = np.arange(arr.size, dtype=np.int64)
        word_idx = positions // k
        shifts = ((positions % k) * bit_width).astype(np.uint64)
        shifted = arr.astype(np.uint64) << shifts
        np.bitwise_or.at(words, word_idx, shifted)
    return PackedArray(words=words, bit_width=bit_width, count=int(arr.size))


def _reference_encode_strings(global_ids: np.ndarray) -> DictEncodedColumn:
    arr = np.asarray(global_ids, dtype=np.int64)
    if arr.size == 0:
        empty = reference_pack([], bit_width=1)
        return DictEncodedColumn(chunk_dict=empty, chunk_ids=empty)
    distinct = np.unique(arr)
    chunk_ids = np.searchsorted(distinct, arr)
    id_bits = bits_needed(int(distinct.size - 1))
    return DictEncodedColumn(
        chunk_dict=reference_pack(distinct),
        chunk_ids=reference_pack(chunk_ids, bit_width=id_bits),
    )


def _reference_encode_integers(values: np.ndarray) -> DeltaEncodedColumn:
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        return DeltaEncodedColumn(0, 0, reference_pack([], bit_width=1))
    lo = int(arr.min())
    hi = int(arr.max())
    return DeltaEncodedColumn(
        min_value=lo,
        max_value=hi,
        deltas=reference_pack((arr - lo).view(np.uint64),
                              bit_width=bits_needed(hi - lo)),
    )


def _reference_encode_users(global_ids: np.ndarray) -> RleColumn:
    arr = np.asarray(global_ids, dtype=np.int64)
    if arr.size == 0:
        empty = reference_pack([], bit_width=1)
        return RleColumn(empty, empty, empty, n_rows=0)
    boundaries = np.flatnonzero(np.diff(arr) != 0) + 1
    starts = np.concatenate([[0], boundaries]).astype(np.int64)
    stops = np.concatenate([boundaries, [arr.size]]).astype(np.int64)
    return RleColumn(
        user_ids=reference_pack(arr[starts]),
        starts=reference_pack(starts),
        counts=reference_pack(stops - starts),
        n_rows=int(arr.size),
    )


def _reference_zone_map(col) -> ZoneMap:
    if isinstance(col, DictEncodedColumn):
        if col.cardinality == 0:
            return ZoneMap(0, 0, 0)
        gids = col.global_ids()
        return ZoneMap(int(gids[0]), int(gids[-1]), int(gids.size))
    if isinstance(col, DeltaEncodedColumn):
        if len(col) == 0:
            return ZoneMap(0, 0, 0)
        distinct = int(np.unique(col.deltas.unpack()).size)
        return ZoneMap(col.min_value, col.max_value, distinct)
    if len(col) == 0:
        return ZoneMap(0.0, 0.0, 0)
    distinct = int(np.unique(col.values).size)
    return ZoneMap(float(col.min_value), float(col.max_value), distinct)
