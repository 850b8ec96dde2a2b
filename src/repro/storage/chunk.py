"""Data chunks: the unit of storage, scanning and pruning (Section 4.1).

The activity table is horizontally partitioned so that **all tuples of a
user land in exactly one chunk** — the invariant behind the per-chunk
``UserCount()`` optimization (Section 4.5) and per-chunk parallel merging.
Within a chunk, data is stored column by column:

* the user column as RLE triples (:mod:`repro.storage.rle`),
* string columns dictionary encoded (:mod:`repro.storage.dictionary`),
* integer columns delta encoded (:mod:`repro.storage.delta`),
* float columns raw (:mod:`repro.storage.raw`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError
from repro.schema import ActivitySchema, ColumnRole, LogicalType
from repro.storage.delta import DeltaEncodedColumn
from repro.storage.dictionary import DictEncodedColumn
from repro.storage.raw import RawFloatColumn
from repro.storage.rle import RleColumn
from repro.storage.zonemap import ZoneMap

#: Any encoded non-user column segment.
EncodedColumn = DictEncodedColumn | DeltaEncodedColumn | RawFloatColumn


@dataclass(frozen=True)
class Chunk:
    """One horizontal partition of a compressed activity table.

    Attributes:
        index: position of this chunk in the table.
        n_rows: tuples stored.
        users: RLE-encoded user column.
        columns: encoded segments for every non-user column, keyed by name.
        zone_maps: persisted per-column zone maps, one per column.
    """

    index: int
    n_rows: int
    users: RleColumn
    columns: dict[str, EncodedColumn]
    zone_maps: dict[str, ZoneMap]

    def __post_init__(self):
        if self.users.n_rows != self.n_rows:
            raise StorageError(
                f"chunk {self.index}: user column covers "
                f"{self.users.n_rows} rows, expected {self.n_rows}")
        for name, col in self.columns.items():
            if len(col) != self.n_rows:
                raise StorageError(
                    f"chunk {self.index}: column {name!r} has {len(col)} "
                    f"rows, expected {self.n_rows}")
        for name in self.zone_maps:
            if name not in self.columns:
                raise StorageError(
                    f"chunk {self.index}: zone map for unknown "
                    f"column {name!r}")

    def zone_map(self, name: str) -> ZoneMap | None:
        """The persisted zone map for ``name``, or None when the chunk
        has none for it."""
        return self.zone_maps.get(name)

    @property
    def n_users(self) -> int:
        """Distinct users in this chunk."""
        return self.users.n_users

    @property
    def nbytes(self) -> int:
        """Compressed size of all segments."""
        return self.users.nbytes + sum(c.nbytes for c in self.columns.values())

    # -- decoding -----------------------------------------------------------

    def column(self, name: str) -> EncodedColumn:
        """The encoded segment for ``name``."""
        try:
            return self.columns[name]
        except KeyError:
            raise StorageError(f"chunk {self.index}: no column {name!r}; "
                               f"have {sorted(self.columns)}") from None

    def decode_codes(self, name: str) -> np.ndarray:
        """Decode ``name`` to per-row *codes*.

        For string columns this returns global dictionary ids (comparisons
        and group-bys run on these without materializing strings); for
        integer columns, the actual int64 values; for float columns, the
        raw float64 values.
        """
        col = self.column(name)
        if isinstance(col, DictEncodedColumn):
            return col.decode_to_global_ids()
        return col.decode()

    def user_global_ids(self) -> np.ndarray:
        """Per-row global user ids (vectorized RLE expansion)."""
        return self.users.expand()


def encoded_column_kind(schema: ActivitySchema, name: str) -> str:
    """Which encoder a column uses: 'dict', 'delta' or 'raw'.

    The user column is handled separately (RLE) and is not valid here.
    """
    spec = schema.column(name)
    if spec.role is ColumnRole.USER:
        raise StorageError("user column is RLE encoded, not a chunk column")
    if spec.ltype is LogicalType.STRING:
        return "dict"
    if spec.ltype.is_integer_like:
        return "delta"
    return "raw"
