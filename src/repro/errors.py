"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure. Subsystems raise
the most specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema definition or schema/data mismatch is invalid."""


class BadValueError(SchemaError):
    """A value does not coerce to its column's logical type; ``row`` is
    its position in its column (None for a query literal)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class PrimaryKeyError(SchemaError):
    """The (user, time, action) primary-key constraint is violated."""


class StorageError(ReproError):
    """A storage-format file is malformed or cannot be (de)serialized."""


class EncodingError(StorageError):
    """A column encoder received values it cannot represent."""


class QueryError(ReproError):
    """A query is semantically invalid for its target table."""


class ParseError(QueryError):
    """A query string failed to parse.

    Attributes:
        position: character offset of the offending token, if known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class BindError(QueryError):
    """A parsed query references unknown tables, columns, or functions."""


class ExecutionError(ReproError):
    """A plan failed while executing (e.g. type error in an expression)."""


class CatalogError(ReproError):
    """A table name is unknown or already registered."""


class ServiceError(ReproError):
    """The query service was misconfigured or misused."""
