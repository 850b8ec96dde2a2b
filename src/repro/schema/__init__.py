"""Schemas, logical types and column roles for activity tables."""

from repro.schema.column import (
    ColumnRole,
    ColumnSpec,
    action_column,
    dimension_column,
    measure_column,
    time_column,
    user_column,
)
from repro.schema.schema import ActivitySchema
from repro.schema.types import (
    TIME_UNIT_SECONDS,
    LogicalType,
    coerce_column,
    coerce_value,
    format_timestamp,
    parse_timestamp,
)

__all__ = [
    "ActivitySchema",
    "ColumnRole",
    "ColumnSpec",
    "LogicalType",
    "TIME_UNIT_SECONDS",
    "action_column",
    "coerce_column",
    "coerce_value",
    "dimension_column",
    "format_timestamp",
    "measure_column",
    "parse_timestamp",
    "time_column",
    "user_column",
]
