"""Fixed-width bit packing (Section 4.1, final paragraph).

The paper packs each integer array with the minimum number of bits ``n``
needed for its maximum value, fitting as many values as possible into each
64-bit computer word *without* letting a value span two words. That choice
sacrifices a little space but allows any position to be read without
decompressing its neighbours — "of vital importance for efficient cohort
query processing".

This module reproduces that scheme exactly:

* ``k = 64 // n`` values per word,
* value ``i`` lives in word ``i // k`` at bit offset ``(i % k) * n``.

Packing pads the values to ``words * k`` and views them as a
``(words, k)`` matrix whose row ``w`` holds word ``w``'s values; a
word is slot 0 ORed with each slot ``j`` shifted left by ``j * n``,
so packing is ``k`` linear passes over the words. Because no value
spans two words, decoding a run of words is one broadcast: each word
shifted right by the ``k`` slot offsets ``0, n, 2n, ...`` and masked
gives a ``(words, k)`` matrix whose flattened rows are the values in
order. Whole-array and range reads (:meth:`PackedArray.unpack`,
:meth:`PackedArray.get_range`) both decode that way;
:meth:`PackedArray.get` reads one position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EncodingError

_WORD_BITS = 64


def bits_needed(max_value: int) -> int:
    """Minimum bits to represent values in ``[0, max_value]`` (at least 1)."""
    if max_value < 0:
        raise EncodingError(f"bit packing requires non-negative values, "
                            f"got max {max_value}")
    return max(1, int(max_value).bit_length())


@dataclass(frozen=True)
class PackedArray:
    """An immutable bit-packed integer array.

    Attributes:
        words: the backing uint64 word array.
        bit_width: bits per value (``n``).
        count: number of logical values stored.
    """

    words: np.ndarray
    bit_width: int
    count: int

    @property
    def values_per_word(self) -> int:
        """How many values fit in one 64-bit word (``k = 64 // n``)."""
        return _WORD_BITS // self.bit_width

    @property
    def nbytes(self) -> int:
        """Size of the packed representation in bytes."""
        return int(self.words.nbytes)

    # -- access -------------------------------------------------------------

    def unpack(self) -> np.ndarray:
        """Decode all values to an int64 array (vectorized)."""
        return self.get_range(0, self.count)

    def get(self, position: int) -> int:
        """Random access: decode the value at ``position`` only."""
        if not 0 <= position < self.count:
            raise IndexError(f"position {position} out of range "
                             f"[0, {self.count})")
        k = self.values_per_word
        word = int(self.words[position // k])
        shift = (position % k) * self.bit_width
        return (word >> shift) & _mask(self.bit_width)

    def get_range(self, start: int, stop: int) -> np.ndarray:
        """Decode values in ``[start, stop)`` without touching the rest."""
        if start < 0 or stop > self.count or start > stop:
            raise IndexError(f"bad range [{start}, {stop}) for "
                             f"count {self.count}")
        if start == stop:
            return np.empty(0, dtype=np.int64)
        k = self.values_per_word
        first, last = start // k, (stop - 1) // k + 1
        shifts = np.arange(k, dtype=np.uint64) * np.uint64(self.bit_width)
        slots = self.words[first:last, None] >> shifts
        slots &= np.uint64(_mask(self.bit_width))
        offset = start - first * k
        # Reinterpreting the bits is what a uint64 -> int64 cast does.
        return slots.view(np.int64).ravel()[offset:offset + stop - start]

    def __len__(self) -> int:
        return self.count


def pack(values: np.ndarray | list, bit_width: int | None = None,
         ) -> PackedArray:
    """Bit-pack non-negative integers.

    Args:
        values: integers in ``[0, 2**bit_width)``; a ``uint64`` array
            is packed as is, anything else is read as int64.
        bit_width: bits per value; inferred from the maximum when omitted.

    Raises:
        EncodingError: on negative values or values too wide for
            ``bit_width``.
    """
    arr = np.asarray(values)
    if arr.dtype != np.uint64:
        arr = np.asarray(arr, dtype=np.int64)
        if arr.size and int(arr.min()) < 0:
            raise EncodingError("bit packing requires non-negative values")
    if bit_width is None:
        bit_width = bits_needed(int(arr.max()) if arr.size else 0)
    if not 1 <= bit_width <= _WORD_BITS:
        raise EncodingError(f"bit width must be in [1, 64], got {bit_width}")
    if arr.size and int(arr.max()) > _mask(bit_width):
        raise EncodingError(
            f"value {int(arr.max())} does not fit in {bit_width} bits")
    k = _WORD_BITS // bit_width
    n_words = (arr.size + k - 1) // k
    slots = np.zeros((n_words, k), dtype=np.uint64)
    slots.ravel()[:arr.size] = arr
    words = slots[:, 0].copy()
    for j in range(1, k):
        words |= slots[:, j] << np.uint64(j * bit_width)
    return PackedArray(words=words, bit_width=bit_width, count=int(arr.size))


def _mask(bit_width: int) -> int:
    if bit_width >= _WORD_BITS:
        return (1 << _WORD_BITS) - 1
    return (1 << bit_width) - 1
