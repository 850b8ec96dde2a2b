"""Logical column types for activity tables and relational results.

The storage layer and both relational engines dispatch on these types to
pick value representations and compression schemes:

* ``STRING`` columns are dictionary encoded (two-level: global + chunk).
* ``INT`` and ``TIMESTAMP`` columns are delta encoded (two-level MIN/MAX).
* ``FLOAT`` columns are stored raw (the paper's measures are integers, but
  derived results such as ``Avg(gold)`` are floats).

Timestamps are represented as int64 epoch seconds throughout.
"""

from __future__ import annotations

import enum
import operator
import re
from datetime import datetime, timedelta, timezone
from typing import Sequence

import numpy as np

from repro.errors import BadValueError, SchemaError


class LogicalType(enum.Enum):
    """The logical type of a column value."""

    STRING = "string"
    INT = "int"
    TIMESTAMP = "timestamp"
    FLOAT = "float"

    @property
    def is_integer_like(self) -> bool:
        """True for types persisted through the delta/bit-packed path."""
        return self in (LogicalType.INT, LogicalType.TIMESTAMP)

    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used for in-memory column arrays of this type."""
        if self is LogicalType.STRING:
            return np.dtype(object)
        if self is LogicalType.FLOAT:
            return np.dtype(np.float64)
        return np.dtype(np.int64)


#: The two shapes :func:`format_timestamp` emits, with the clock in
#: range: :func:`parse_timestamp` reads them with ``fromisoformat``
#: instead of trying ``strptime`` format after format.
_FORMATTED = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
                        r"(?: (?:[01][0-9]|2[0-3])(?::[0-5][0-9]){2})?")
_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)


def parse_timestamp(text: str) -> int:
    """Parse a timestamp literal into epoch seconds.

    Accepts the paper's ``YYYY/MM/DD:HHMM`` format (e.g.
    ``2013/05/19:1000``), ISO dates (``2013-05-21``), and ISO datetimes
    (``2013-05-21 14:00`` or ``2013-05-21T14:00:00``). All values are
    interpreted as UTC.

    Raises:
        SchemaError: if the text matches no supported format.
    """
    text = text.strip()
    if _FORMATTED.fullmatch(text):
        try:
            return (datetime.fromisoformat(text) - _EPOCH) // _SECOND
        except ValueError:
            pass  # not a calendar date: the formats below refuse it too
    if "/" in text and ":" in text:
        date_part, _, clock = text.partition(":")
        try:
            year, month, day = (int(p) for p in date_part.split("/"))
            hour, minute = int(clock[:2]), int(clock[2:] or 0)
            dt = datetime(year, month, day, hour, minute, tzinfo=timezone.utc)
            return int(dt.timestamp())
        except ValueError as exc:
            raise SchemaError(f"bad timestamp literal: {text!r}") from exc
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M",
                "%Y-%m-%dT%H:%M", "%Y-%m-%d"):
        try:
            dt = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
            return int(dt.timestamp())
        except ValueError:
            continue
    raise SchemaError(f"bad timestamp literal: {text!r}")


def format_timestamp(epoch_seconds: int) -> str:
    """Render epoch seconds as an ISO UTC datetime string."""
    dt = datetime.fromtimestamp(int(epoch_seconds), tz=timezone.utc)
    if dt.hour == 0 and dt.minute == 0 and dt.second == 0:
        return dt.strftime("%Y-%m-%d")
    return dt.strftime("%Y-%m-%d %H:%M:%S")


#: Seconds in each supported age/binning unit.
TIME_UNIT_SECONDS: dict[str, int] = {
    "second": 1,
    "minute": 60,
    "hour": 3600,
    "day": 86400,
    "week": 7 * 86400,
}


def _timestamp(value) -> int:
    return parse_timestamp(value) if isinstance(value, str) else int(value)


#: The one definition of a cell: each type's canonical value of a
#: Python value. String timestamps are parsed; numerics are cast.
_COERCIONS = {LogicalType.STRING: str, LogicalType.TIMESTAMP: _timestamp,
              LogicalType.INT: int, LogicalType.FLOAT: float}

#: What a value :data:`_COERCIONS` or a column dtype refuses raises.
_REFUSED = (SchemaError, ValueError, TypeError, OverflowError)


def coerce_value(value, ltype: LogicalType):
    """Coerce a Python literal to the canonical value for ``ltype``: how
    the binder types query literals (a column goes through
    :func:`coerce_column`).

    Raises:
        BadValueError: if ``value`` has no ``ltype`` value.
    """
    try:
        return _COERCIONS[ltype](value)
    except _REFUSED as exc:
        raise BadValueError(f"bad {ltype.value} value {value!r}") from exc


def coerce_column(values: Sequence, ltype: LogicalType) -> np.ndarray:
    """``[coerce_value(v, ltype) for v in values]`` as an array of
    ``ltype``'s dtype, built in one ``fromiter`` pass.

    Raises:
        BadValueError: for the first value that does not coerce or does
            not fit the dtype, with its position as ``row``.
    """
    rest = iter(values)
    try:
        return np.fromiter(map(_COERCIONS[ltype], rest),
                           dtype=ltype.numpy_dtype(), count=len(values))
    except _REFUSED as exc:
        # ``map`` took the refused value from ``rest`` and no later one.
        row = len(values) - operator.length_hint(rest) - 1
        raise BadValueError(f"bad {ltype.value} value {values[row]!r}",
                            row) from exc
