"""Per-chunk, per-column zone maps (min/max + cardinality statistics).

A zone map summarises one column segment of one chunk in the *coded*
domain:

* dictionary-encoded string columns — min/max **global id** (the global
  dictionary is sorted, so id order equals lexicographic order and the
  id range is a faithful value range);
* delta-encoded integer columns — min/max value;
* raw float columns — min/max value.

Alongside the range it records the segment's distinct-value count and
null count (always zero today — activity tables have no nulls — but
persisted so the format does not need another revision when optional
measures arrive).

Zone maps are computed once by the storage writer
(:mod:`repro.storage.writer`), persisted after each chunk of a
``.cohana`` file (:mod:`repro.storage.format`), and consulted by the
scheduler's pruning step (:func:`repro.cohana.pipeline.prune_reason`)
*before any segment is decoded*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StorageError
from repro.storage.delta import DeltaEncodedColumn
from repro.storage.dictionary import DictEncodedColumn
from repro.storage.raw import RawFloatColumn
from repro.table.activity import factorize


@dataclass(frozen=True)
class ZoneMap:
    """Coded-domain summary of one column segment.

    Attributes:
        min_value: smallest coded value in the segment (global id for
            dictionary columns, raw value otherwise).
        max_value: largest coded value.
        distinct_count: number of distinct values in the segment.
        null_count: number of nulls (always 0 today; kept for format
            stability).
    """

    min_value: int | float
    max_value: int | float
    distinct_count: int
    null_count: int = 0

    def __post_init__(self) -> None:
        if self.distinct_count < 0 or self.null_count < 0:
            raise StorageError("zone-map counts must be non-negative")
        if self.distinct_count and self.min_value > self.max_value:
            raise StorageError(
                f"zone map has min {self.min_value} > max {self.max_value}")

    @property
    def is_empty(self) -> bool:
        """True when the segment holds no values at all."""
        return self.distinct_count == 0

    @property
    def is_float(self) -> bool:
        """True when the summarised values are floats (raw columns)."""
        return isinstance(self.min_value, float)

    def overlaps(self, low: int | float | None,
                 high: int | float | None) -> bool:
        """Could any segment value fall inside ``[low, high]``?

        ``None`` bounds are unbounded; an empty segment never overlaps.
        This is the *necessary* half of pruning: ``False`` proves no
        tuple in the chunk can satisfy a ``[low, high]`` predicate.
        """
        if self.is_empty:
            return False
        if low is not None and self.max_value < low:
            return False
        if high is not None and self.min_value > high:
            return False
        return True

    def within(self, low: int | float | None,
               high: int | float | None) -> bool:
        """Does *every* segment value fall inside ``[low, high]``?

        The *sufficient* half: ``True`` proves a range predicate is
        satisfied by every tuple of the chunk, so a scan can skip
        evaluating it entirely (the mask is all-true).
        """
        if self.is_empty:
            return False
        if low is not None and self.min_value < low:
            return False
        if high is not None and self.max_value > high:
            return False
        return True


def build_zone_map(
        col: DictEncodedColumn | DeltaEncodedColumn | RawFloatColumn,
) -> ZoneMap:
    """Compute the zone map of one encoded column segment."""
    if isinstance(col, DictEncodedColumn):
        if col.cardinality == 0:
            return ZoneMap(0, 0, 0)
        gids = col.global_ids()
        return ZoneMap(int(gids[0]), int(gids[-1]), int(gids.size))
    if isinstance(col, DeltaEncodedColumn):
        if len(col) == 0:
            return ZoneMap(0, 0, 0)
        distinct = factorize(col.deltas.unpack())[0].size
        return ZoneMap(col.min_value, col.max_value, distinct)
    if isinstance(col, RawFloatColumn):
        if len(col) == 0:
            return ZoneMap(0.0, 0.0, 0)
        distinct = factorize(col.values)[0].size
        return ZoneMap(float(col.min_value), float(col.max_value), distinct)
    raise StorageError(f"cannot build a zone map for {type(col).__name__}")


def build_zone_maps(
        columns: dict[str, DictEncodedColumn | DeltaEncodedColumn
                      | RawFloatColumn],
) -> dict[str, ZoneMap]:
    """Zone maps for every encoded column of a chunk, keyed by name."""
    return {name: build_zone_map(col) for name, col in columns.items()}
