"""Two-level delta encoding for integer columns (Section 4.1).

Level one records the global MIN/MAX of the column over the whole table;
level two records per-chunk MIN/MAX and stores each value as the delta
from the chunk MIN, bit-packed with just enough bits for
``chunk_max - chunk_min``.

The chunk range doubles as a pruning index: a chunk whose ``[min, max]``
does not intersect a predicate's range cannot contain qualifying tuples —
the paper uses this to skip chunks for time predicates in birth/age
selections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.bitpack import PackedArray, bits_needed, pack


@dataclass(frozen=True)
class GlobalRange:
    """Whole-table MIN/MAX for an integer column."""

    min_value: int
    max_value: int

    @classmethod
    def from_column(cls, column) -> "GlobalRange":
        arr = np.asarray(column, dtype=np.int64)
        if arr.size == 0:
            return cls(0, 0)
        return cls(int(arr.min()), int(arr.max()))

    def merge(self, other: "GlobalRange") -> "GlobalRange":
        """The range covering both operands."""
        return GlobalRange(min(self.min_value, other.min_value),
                           max(self.max_value, other.max_value))


@dataclass(frozen=True)
class DeltaEncodedColumn:
    """One chunk's segment of an integer column.

    Attributes:
        min_value: chunk MIN (the delta base).
        max_value: chunk MAX.
        deltas: packed ``value - min_value`` (mod 2**64) per row.
    """

    min_value: int
    max_value: int
    deltas: PackedArray

    @property
    def nbytes(self) -> int:
        """Compressed size of the packed deltas (+16B of range metadata)."""
        return self.deltas.nbytes + 16

    def overlaps(self, low: int | None, high: int | None) -> bool:
        """Pruning check: could any value fall inside ``[low, high]``?

        ``None`` bounds are unbounded. An empty segment never overlaps.
        """
        if len(self.deltas) == 0:
            return False
        if low is not None and self.max_value < low:
            return False
        if high is not None and self.min_value > high:
            return False
        return True

    def decode(self) -> np.ndarray:
        """All values of the segment (vectorized)."""
        return self.deltas.unpack() + self.min_value

    def value_at(self, position: int) -> int:
        """Random access: decode only the value at ``position``."""
        return self.deltas.get(position) + self.min_value

    def decode_range(self, start: int, stop: int) -> np.ndarray:
        """Decode values in ``[start, stop)``."""
        return self.deltas.get_range(start, stop) + self.min_value

    def __len__(self) -> int:
        return len(self.deltas)


def encode_chunk_integers(values: np.ndarray) -> DeltaEncodedColumn:
    """Delta-encode one chunk's integer segment."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.size == 0:
        return DeltaEncodedColumn(0, 0, pack([], bit_width=1))
    lo = int(arr.min())
    hi = int(arr.max())
    # Deltas modulo 2**64: a span of 2**63 or more wraps in int64 but
    # fits in uint64, and int64 decoding (``deltas + min_value``) wraps
    # back to the value.
    return DeltaEncodedColumn(
        min_value=lo,
        max_value=hi,
        deltas=pack((arr - lo).view(np.uint64),
                    bit_width=bits_needed(hi - lo)),
    )
