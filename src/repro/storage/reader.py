"""The compressed activity table: chunks + global metadata.

A :class:`CompressedActivityTable` is what the COHANA engine executes
against. It owns the global dictionaries (strings), global ranges
(integers) and the chunk list; it can decode itself back to a plain
:class:`~repro.table.ActivityTable` (used by round-trip tests) and answers
the pruning questions the planner asks.

Tables loaded from a ``.cohana`` file are *lazy*: ``chunks`` is a
:class:`LazyChunkList` backed by a memory-mapped buffer, and each chunk
is deserialized on first touch (then cached). Everything else —
iteration, indexing, pruning, scanning — is oblivious to the
distinction, so eager (freshly compressed or decoded from bytes) and
lazy tables behave identically; only the work done at load time
differs. A process worker that scans two chunks of a hundred-chunk file
parses exactly those two.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import StorageError
from repro.schema import ActivitySchema, ColumnRole, LogicalType
from repro.storage.chunk import Chunk
from repro.storage.delta import DeltaEncodedColumn, GlobalRange
from repro.storage.dictionary import DictEncodedColumn, GlobalDictionary
from repro.table import ActivityTable


class LazyChunkList(Sequence):
    """A list-like chunk sequence that deserializes chunks on demand.

    Holds the (typically memory-mapped) file buffer plus the per-chunk
    ``(offset, length)`` index from the file's footer; ``parse`` turns
    one chunk's byte slice into a :class:`~repro.storage.chunk.Chunk`.
    Parsed chunks are cached, so repeated access costs nothing extra.
    """

    def __init__(self, buffer, entries: list[tuple[int, int]],
                 parse: Callable[[bytes, int], Chunk]):
        self._buffer = buffer
        self._entries = entries
        self._parse = parse
        self._chunks: list[Chunk | None] = [None] * len(entries)

    @property
    def loaded_count(self) -> int:
        """How many chunks have been deserialized so far."""
        return sum(1 for c in self._chunks if c is not None)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"chunk index {index} out of range")
        chunk = self._chunks[index]
        if chunk is None:
            offset, length = self._entries[index]
            blob = self._buffer[offset:offset + length]
            chunk = self._parse(blob, index)
            self._chunks[index] = chunk
        return chunk

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __repr__(self) -> str:
        return (f"LazyChunkList({len(self)} chunks, "
                f"{self.loaded_count} loaded)")


@dataclass
class CompressedActivityTable:
    """A chunked, compressed activity table (the on-disk unit).

    Attributes:
        schema: the activity schema.
        global_dicts: global dictionary per string column (incl. user).
        global_ranges: global MIN/MAX per integer column.
        chunks: the horizontal partitions, in row order — a plain list,
            or a :class:`LazyChunkList` for mmap-backed loads.
        target_chunk_rows: the writer's chunk-size setting.
        source_path: the ``.cohana`` file this table was loaded from, or
            None for in-memory tables. The ``processes`` execution
            backend uses it to reopen the table inside worker processes
            (only chunk indices and partial aggregates cross the process
            boundary, never chunk data).
        content_digest: hex SHA-256 of the serialized payload — read
            from the file header, None for tables compressed in memory
            (the engine substitutes a monotonic counter token).
            The query service keys its result cache on it, so a
            rewritten file can never serve stale cached results.
    """

    schema: ActivitySchema
    global_dicts: dict[str, GlobalDictionary]
    global_ranges: dict[str, GlobalRange]
    chunks: list[Chunk] | LazyChunkList
    target_chunk_rows: int
    source_path: str | None = field(default=None, compare=False)
    content_digest: str | None = field(default=None, compare=False)

    @property
    def n_rows(self) -> int:
        """Total tuples across all chunks."""
        return sum(c.n_rows for c in self.chunks)

    @property
    def n_users(self) -> int:
        """Total distinct users (sums per-chunk counts; valid because a
        user lives in exactly one chunk)."""
        return sum(c.n_users for c in self.chunks)

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    @property
    def is_lazy(self) -> bool:
        """True when chunks deserialize on first touch (mmap-backed)."""
        return isinstance(self.chunks, LazyChunkList)

    @property
    def is_sharded(self) -> bool:
        """True for a directory of shards
        (:class:`repro.storage.sharded.ShardedActivityTable`), which
        has no chunks of its own: each shard is read on its own."""
        return False

    @property
    def nbytes(self) -> int:
        """Compressed size: chunks + global dictionaries + ranges."""
        total = sum(c.nbytes for c in self.chunks)
        total += sum(d.nbytes for d in self.global_dicts.values())
        total += 16 * len(self.global_ranges)
        return total

    # -- value/id mapping ----------------------------------------------------

    def dictionary(self, column: str) -> GlobalDictionary:
        """The global dictionary of a string column."""
        try:
            return self.global_dicts[column]
        except KeyError:
            raise StorageError(
                f"column {column!r} has no global dictionary") from None

    def global_id(self, column: str, value: str) -> int | None:
        """Global id of ``value`` in ``column``, or None if absent
        anywhere in the table (queries naming such values match nothing)."""
        return self.dictionary(column).global_id(value)

    def value_of(self, column: str, global_id: int) -> str:
        """Inverse of :meth:`global_id`."""
        return self.dictionary(column).value(int(global_id))

    def user_name(self, global_id: int) -> str:
        """The user string for a global user id."""
        return self.value_of(self.schema.user.name, global_id)

    # -- pruning -------------------------------------------------------------

    def chunk_may_contain_action(self, chunk: Chunk,
                                 action_global_id: int) -> bool:
        """Section 4.1 pruning: binary-search the action chunk dictionary."""
        col = chunk.column(self.schema.action.name)
        if not isinstance(col, DictEncodedColumn):  # pragma: no cover
            raise StorageError("action column must be dictionary encoded")
        return col.contains_global_id(action_global_id)

    def chunk_overlaps_range(self, chunk: Chunk, column: str,
                             low: int | None, high: int | None) -> bool:
        """Section 4.1 pruning: chunk MIN/MAX intersection for integers."""
        col = chunk.column(column)
        if isinstance(col, (DeltaEncodedColumn,)):
            return col.overlaps(low, high)
        raise StorageError(
            f"range pruning requires an integer column, got {column!r}")

    # -- decoding ------------------------------------------------------------

    def decode_chunk(self, chunk: Chunk) -> ActivityTable:
        """Materialize one chunk back into a plain activity table."""
        columns: dict[str, np.ndarray] = {}
        for spec in self.schema:
            if spec.role is ColumnRole.USER:
                gids = chunk.user_global_ids()
                columns[spec.name] = self.dictionary(spec.name).decode(gids)
            elif spec.ltype is LogicalType.STRING:
                codes = chunk.decode_codes(spec.name)
                columns[spec.name] = self.dictionary(spec.name).decode(codes)
            else:
                columns[spec.name] = chunk.decode_codes(spec.name)
        return ActivityTable(self.schema, columns)

    def decompress(self) -> ActivityTable:
        """Materialize the whole table (round-trip of the writer)."""
        if not self.chunks:
            return ActivityTable.empty(self.schema)
        table = self.decode_chunk(self.chunks[0])
        for chunk in self.chunks[1:]:
            table = table.concat(self.decode_chunk(chunk))
        return table

    def __repr__(self) -> str:
        return (f"CompressedActivityTable({self.n_rows} rows, "
                f"{self.n_users} users, {self.n_chunks} chunks, "
                f"{self.nbytes} bytes)")
