"""Two-level dictionary encoding for string columns (Section 4.1).

Level one is a *global dictionary*: the sorted distinct values of the
column across the whole table; a value's *global id* is its position.
Because the dictionary is sorted, global-id order equals lexicographic
order, so range predicates on strings can be evaluated on ids.

Level two is a per-chunk *chunk dictionary*: the sorted global ids of the
values present in that chunk; a value's *chunk id* is the position of its
global id in the chunk dictionary. The column segment is stored as
bit-packed chunk ids, which need only ``ceil(log2(|chunk dict|))`` bits.

The chunk dictionary doubles as a pruning index: a binary search tells in
O(log n) whether a chunk contains a given global id at all — the paper uses
this to skip chunks in which no user performs the birth action.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.errors import EncodingError
from repro.storage.bitpack import PackedArray, bits_needed, pack
from repro.table.activity import factorize


@dataclass(frozen=True)
class GlobalDictionary:
    """Sorted distinct string values; position == global id."""

    values: tuple[str, ...]

    def __post_init__(self):
        vals = tuple(self.values)
        if list(vals) != sorted(set(vals)):
            raise EncodingError("global dictionary must be sorted & unique")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_column(cls, column) -> "GlobalDictionary":
        """Build from any iterable of strings."""
        return cls(tuple(sorted(set(column))))

    def __len__(self) -> int:
        return len(self.values)

    def global_id(self, value: str) -> int | None:
        """The global id of ``value``, or None if absent."""
        pos = bisect.bisect_left(self.values, value)
        if pos < len(self.values) and self.values[pos] == value:
            return pos
        return None

    def value(self, global_id: int) -> str:
        """The string for ``global_id``."""
        return self.values[global_id]

    def encode(self, column) -> np.ndarray:
        """Map strings to global ids (vectorized via a lookup dict)."""
        mapping = {v: i for i, v in enumerate(self.values)}
        try:
            return np.fromiter((mapping[v] for v in column),
                               dtype=np.int64, count=len(column))
        except KeyError as exc:
            raise EncodingError(
                f"value {exc.args[0]!r} not in global dictionary") from None

    def decode(self, global_ids: np.ndarray) -> np.ndarray:
        """Map global ids back to strings (object array)."""
        lookup = np.asarray(self.values, dtype=object)
        return lookup[np.asarray(global_ids, dtype=np.int64)]

    @property
    def nbytes(self) -> int:
        """Approximate serialized size (UTF-8 bytes + separators)."""
        return sum(len(v.encode("utf-8")) + 1 for v in self.values)


@dataclass(frozen=True)
class DictEncodedColumn:
    """One chunk's segment of a string column.

    Attributes:
        chunk_dict: packed sorted global ids present in this chunk.
        chunk_ids: packed per-row chunk ids.
    """

    chunk_dict: PackedArray
    chunk_ids: PackedArray

    @property
    def nbytes(self) -> int:
        """Compressed size: chunk dictionary + packed ids."""
        return self.chunk_dict.nbytes + self.chunk_ids.nbytes

    @property
    def cardinality(self) -> int:
        """Distinct values in this chunk."""
        return len(self.chunk_dict)

    def global_ids(self) -> np.ndarray:
        """The chunk dictionary (sorted global ids), unpacked once.

        Pruning probes and every scan of the segment need this array, so
        the bit-unpack is cached on the (frozen) segment itself instead of
        per-query executor state. ``object.__setattr__`` is race-safe here
        because the unpack is deterministic. Callers must treat the
        returned array as read-only.
        """
        cached = getattr(self, "_global_ids", None)
        if cached is None:
            cached = self.chunk_dict.unpack()
            object.__setattr__(self, "_global_ids", cached)
        return cached

    def contains_global_id(self, global_id: int) -> bool:
        """Binary-search the chunk dictionary (the pruning check)."""
        gids = self.global_ids()
        pos = int(np.searchsorted(gids, global_id))
        return pos < gids.size and int(gids[pos]) == global_id

    def contains_any_global_id(self, global_ids) -> bool:
        """Is *any* of ``global_ids`` present in this chunk?

        Vectorized membership over the chunk dictionary — the pruning
        check for equality/IN predicates: ``False`` proves no tuple of
        the chunk can match any of the listed values.
        """
        gids = self.global_ids()
        if gids.size == 0:
            return False
        probes = np.asarray(list(global_ids), dtype=np.int64)
        if probes.size == 0:
            return False
        pos = np.searchsorted(gids, probes)
        inside = pos < gids.size
        return bool(np.any(gids[pos[inside]] == probes[inside]))

    def decode_to_global_ids(self) -> np.ndarray:
        """Per-row global ids for the whole segment (vectorized)."""
        return self.global_ids()[self.chunk_ids.unpack()]

    def global_id_at(self, position: int) -> int:
        """Random access: the global id of the value at ``position``."""
        return self.chunk_dict.get(self.chunk_ids.get(position))

    def __len__(self) -> int:
        return len(self.chunk_ids)


def encode_chunk_strings(global_ids: np.ndarray) -> DictEncodedColumn:
    """Encode one chunk's segment, given per-row *global* ids."""
    arr = np.asarray(global_ids, dtype=np.int64)
    if arr.size == 0:
        empty = pack([], bit_width=1)
        return DictEncodedColumn(chunk_dict=empty, chunk_ids=empty)
    distinct, chunk_ids = factorize(arr)
    id_bits = bits_needed(int(distinct.size - 1))
    return DictEncodedColumn(
        chunk_dict=pack(distinct),
        chunk_ids=pack(chunk_ids, bit_width=id_bits),
    )
