"""In-memory activity tables.

An :class:`ActivityTable` pairs an :class:`~repro.schema.ActivitySchema`
with one numpy array per column. It is the interchange format of the whole
library: the data generator produces one, the COHANA writer compresses one,
the relational engines load one as a base table, and the cohort-algebra
oracle evaluates Definitions 1–6 directly against one.

The paper stores activity tables sorted by the primary key
``(Au, At, Ae)`` which yields the *clustering* property (a user's tuples
are contiguous) and the *time-ordering* property (each user's tuples are
chronological). :meth:`ActivityTable.sorted_by_primary_key` produces that
layout and :meth:`ActivityTable.user_blocks` exposes it.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import BadValueError, PrimaryKeyError, SchemaError
from repro.schema import ActivitySchema, ColumnSpec, LogicalType, coerce_column

#: Rows per block of :meth:`ActivityTable.row_blocks`: enough that the
#: per-block cost vanishes, few enough that a block's tuples stay small.
ROW_BLOCK = 8192


class ActivityTable:
    """A columnar, immutable-by-convention activity table.

    Attributes:
        schema: the table's :class:`ActivitySchema`.
    """

    def __init__(self, schema: ActivitySchema,
                 columns: Mapping[str, np.ndarray | Sequence]):
        self.schema = schema
        self._columns: dict[str, np.ndarray] = {}
        length = None
        for spec in schema:
            if spec.name not in columns:
                raise SchemaError(f"missing column data for {spec.name!r}")
            arr = _as_array(columns[spec.name], spec)
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise SchemaError(
                    f"column {spec.name!r} has {len(arr)} values, "
                    f"expected {length}")
            self._columns[spec.name] = arr
        extra = set(columns) - set(schema.names())
        if extra:
            raise SchemaError(f"columns not in schema: {sorted(extra)}")
        self._length = length if length is not None else 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: ActivitySchema,
                  rows: Iterable[Sequence | Mapping]) -> "ActivityTable":
        """Build a table from row tuples (in schema column order) or row
        dicts, kept in their order. Each column is coerced once
        (:func:`~repro.schema.coerce_column`), so timestamp strings in
        the paper's ``2013/05/19:1000`` format are accepted.

        Raises:
            SchemaError: for a tuple of the wrong width or a dict with a
                missing or unknown column; its :class:`BadValueError`
                (``row`` = the row's position) for a value its column
                cannot hold.
        """
        names = schema.names()
        rows = [_row_values(row, names) for row in rows]
        cells = list(zip(*rows)) if rows else [()] * len(names)
        columns = {}
        for spec, values in zip(schema, cells):
            try:
                columns[spec.name] = coerce_column(values, spec.ltype)
            except BadValueError as exc:
                raise BadValueError(f"column {spec.name!r}: {exc}",
                                    exc.row) from None
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: ActivitySchema) -> "ActivityTable":
        """An activity table with zero rows."""
        return cls(schema, {c.name: [] for c in schema})

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def column(self, name: str) -> np.ndarray:
        """The backing array for ``name`` (do not mutate)."""
        self.schema.column(name)
        return self._columns[name]

    @property
    def users(self) -> np.ndarray:
        """The Au column."""
        return self._columns[self.schema.user.name]

    @property
    def times(self) -> np.ndarray:
        """The At column (int64 epoch seconds)."""
        return self._columns[self.schema.time.name]

    @property
    def actions(self) -> np.ndarray:
        """The Ae column."""
        return self._columns[self.schema.action.name]

    def row(self, i: int) -> dict:
        """Row ``i`` as a ``{column: value}`` dict."""
        return {name: _as_python(self._columns[name][i])
                for name in self.schema.names()}

    def iter_rows(self) -> Iterator[dict]:
        """Iterate rows as dicts (slow; for tests and small tables)."""
        for i in range(self._length):
            yield self.row(i)

    def to_rows(self) -> list[tuple]:
        """All rows as tuples in schema column order."""
        return list(chain.from_iterable(self.row_blocks()))

    def row_blocks(self) -> Iterator[list[tuple]]:
        """All rows as tuples of Python scalars in schema column order,
        :data:`ROW_BLOCK` rows at a time. Each block is built column by
        column, so memory follows the block, not the table."""
        cols = [self._columns[n] for n in self.schema.names()]
        for start in range(0, self._length, ROW_BLOCK):
            yield list(zip(*(_python_values(col[start:start + ROW_BLOCK])
                             for col in cols)))

    def take(self, indices: np.ndarray) -> "ActivityTable":
        """A new table containing the rows at ``indices`` (in that order)."""
        return ActivityTable(
            self.schema,
            {name: arr[indices] for name, arr in self._columns.items()})

    def slice(self, start: int, stop: int) -> "ActivityTable":
        """A new table containing rows ``start:stop``."""
        return ActivityTable(
            self.schema,
            {name: arr[start:stop] for name, arr in self._columns.items()})

    def concat(self, other: "ActivityTable") -> "ActivityTable":
        """Concatenate two tables that share a schema."""
        if other.schema != self.schema:
            raise SchemaError("cannot concat tables with different schemas")
        return ActivityTable(
            self.schema,
            {name: np.concatenate([self._columns[name],
                                   other._columns[name]])
             for name in self.schema.names()})

    # -- primary key & layout ------------------------------------------------

    def _primary_key(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (Au, At, Ae) columns as int64 arrays: user ids, times,
        action ids."""
        _, user_ids = dictionary_code(self.users)
        _, action_ids = dictionary_code(self.actions)
        return user_ids, self.times, action_ids

    def check_primary_key(self) -> None:
        """Raise :class:`PrimaryKeyError` on duplicate (Au, At, Ae),
        naming the earliest row whose key an earlier row holds."""
        keys = self._primary_key()
        order = primary_key_order(*keys)
        # In the stable order a repeated key follows an earlier row's.
        repeats = np.ones(max(self._length - 1, 0), dtype=bool)
        for key in keys:
            ordered = key[order]
            repeats &= ordered[1:] == ordered[:-1]
        if repeats.any():
            i = int(order[1:][repeats].min())
            key = (self.users[i], int(self.times[i]), self.actions[i])
            raise PrimaryKeyError(
                f"duplicate primary key {key!r}: each user may perform "
                "a given action at most once per time instant")

    def sorted_by_primary_key(self) -> "ActivityTable":
        """Return a copy sorted by (Au, At, Ae); rows with equal keys
        keep their order.

        This is the paper's storage order: it clusters each user's tuples
        and orders them chronologically (Section 4.1).
        """
        return self.take(primary_key_order(*self._primary_key()))

    def is_sorted_by_primary_key(self) -> bool:
        """True if rows are already in (Au, At, Ae) order."""
        order = primary_key_order(*self._primary_key())
        return bool(np.array_equal(order, np.arange(self._length)))

    def user_blocks(self) -> Iterator[tuple[str, int, int]]:
        """Iterate ``(user, start, stop)`` runs of a sorted table.

        Requires the clustering property: call on a table produced by
        :meth:`sorted_by_primary_key` (or otherwise user-clustered).
        """
        users = self.users
        n = self._length
        start = 0
        while start < n:
            stop = start + 1
            while stop < n and users[stop] == users[start]:
                stop += 1
            yield str(users[start]), start, stop
            start = stop

    def distinct_users(self) -> list[str]:
        """Sorted list of distinct user ids."""
        return sorted(set(self.users.tolist()))

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActivityTable):
            return NotImplemented
        return (self.schema == other.schema
                and self.to_rows() == other.to_rows())

    def __repr__(self) -> str:
        return (f"ActivityTable({self._length} rows, "
                f"columns={self.schema.names()})")


def dictionary_code(column: np.ndarray) -> tuple[list, np.ndarray]:
    """``(sorted distinct values, int64 ids)`` of an object column: a
    value's id is its position among the distinct values, so id order is
    value order.

    Values are hashed and compared as Python strings. A ``'U'`` cast
    would drop trailing NULs, and ``np.unique`` on objects calls a Python
    comparison per pair.
    """
    items = column.tolist()
    values = sorted(set(items))
    mapping = dict(zip(values, range(len(values))))
    return values, np.fromiter(map(mapping.__getitem__, items),
                               dtype=np.int64, count=len(items))


def factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, without the sort
    where the values are integers over a span ``max - min + 1`` of at
    most ``4 * len + 64``.

    There a ``bincount`` over ``values - min`` marks which values are
    present, in order, and the running count of marks is each value's
    code. Label codes, ages and ``(label, age)`` bucket keys all have
    such spans: the chunk dictionary, the age range and their product
    bound them; so do a chunk's global ids where the global dictionary
    is small. Wider spans and floats fall back to ``np.unique``, whose
    ``return_inverse`` path sorts (without it numpy hashes, several
    times slower on int64) and counts every NaN as one value and
    ``-0.0`` as ``0.0``.
    """
    if values.size and values.dtype.kind == "i":
        low = int(values.min())
        span = int(values.max()) - low + 1
        if span <= 4 * values.size + 64:
            offsets = values - low
            present = np.bincount(offsets, minlength=span).astype(bool)
            codes = np.cumsum(present) - 1
            uniques = np.flatnonzero(present) + low
            return uniques.astype(values.dtype, copy=False), codes[offsets]
    return np.unique(values, return_inverse=True)


def primary_key_order(user_ids: np.ndarray, times: np.ndarray,
                      action_ids: np.ndarray) -> np.ndarray:
    """The stable (Au, At, Ae) order of rows, given the ids
    :func:`dictionary_code` gave their users and actions: rows with
    equal keys keep their input order.

    The three columns fold into one int64 key, ``(user_id * span_t +
    (t - t_min)) * n_actions + action_id``, whose stable ``argsort`` is
    linear on input already in key order. Only when the key domain
    ``n_users * span_t * n_actions`` reaches 2**63 (times spread over
    most of the int64 range) does the order come from ``np.lexsort``.
    """
    if not len(times):
        return np.empty(0, dtype=np.intp)
    t_min = int(times.min())
    span_t = int(times.max()) - t_min + 1
    n_users = int(user_ids.max()) + 1
    n_actions = int(action_ids.max()) + 1
    if n_users * span_t * n_actions >= 1 << 63:
        return np.lexsort((action_ids, times, user_ids))
    key = times - t_min
    key += user_ids * span_t
    key *= n_actions
    key += action_ids
    return np.argsort(key, kind="stable")


def _row_values(row: Sequence | Mapping, names: list[str]) -> Sequence:
    """``row``'s values in ``names`` order: a tuple of that width, or a
    dict with exactly those keys."""
    if not isinstance(row, Mapping):
        if len(row) != len(names):
            raise SchemaError(
                f"row has {len(row)} values, expected {len(names)}")
        return row
    missing = [n for n in names if n not in row]
    if missing:
        raise SchemaError(f"missing values for columns: {missing}")
    if len(row) != len(names):
        raise SchemaError(
            f"unknown columns: {[n for n in row if n not in names]}")
    return [row[n] for n in names]


def _as_array(values, spec: ColumnSpec) -> np.ndarray:
    dtype = spec.ltype.numpy_dtype()
    if isinstance(values, np.ndarray):
        if spec.ltype is LogicalType.STRING:
            if values.dtype == object or values.dtype.kind in ("U", "S"):
                return values.astype(object)
            raise SchemaError(
                f"column {spec.name!r} expects strings, got {values.dtype}")
        return values.astype(dtype, copy=False)
    arr = np.empty(len(values), dtype=dtype)
    if spec.ltype is LogicalType.STRING:
        for i, v in enumerate(values):
            if not isinstance(v, str):
                raise SchemaError(
                    f"column {spec.name!r} expects strings, got {v!r}")
            arr[i] = v
    else:
        arr[:] = values
    return arr


def _as_python(value):
    if isinstance(value, np.generic):
        if isinstance(value, np.str_):
            # ``item()`` drops trailing NULs, which a stored shard keeps.
            return str.__str__(value)
        return value.item()
    return value


def _python_values(values: np.ndarray) -> list:
    """``[_as_python(v) for v in values]`` in one ``tolist`` call. An
    object (string) column's ``tolist`` keeps its elements as they are,
    so one holding numpy scalars (``np.str_``, whose ``repr`` is not a
    ``str``'s) converts them element by element."""
    items = values.tolist()
    if values.dtype == object and any(
            issubclass(t, np.generic) for t in set(map(type, items))):
        items = [_as_python(v) for v in items]
    return items
