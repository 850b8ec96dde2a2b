"""The declarative cohort query (Section 3.4).

A :class:`CohortQuery` captures the paper's extended SELECT statement::

    SELECT <cohort attrs>, COHORTSIZE, AGE, <aggregates>
    FROM <table>
    BIRTH FROM action = <e> [AND <birth condition>]
    [AGE ACTIVITIES IN <age condition>]
    COHORT BY <attrs>

All engines and evaluation schemes in the library accept this object; the
textual syntax is parsed into it by :mod:`repro.cohana.parser`. The same
birth action implicitly applies to every operator in the query, matching
Section 3.4's constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QueryError
from repro.cohort.aggregates import AggregateSpec
from repro.cohort.conditions import Condition, TrueCondition
from repro.schema import (
    TIME_UNIT_SECONDS,
    ActivitySchema,
    ColumnRole,
    ColumnSpec,
    LogicalType,
)


@dataclass(frozen=True)
class SessionizeSpec:
    """Gap-based sessionization: a derived per-user session ordinal.

    Within each user's time-ordered activity run, the first tuple opens
    session 1 and a tuple opens a new session exactly when the gap to
    the previous tuple *exceeds* ``gap`` seconds (a gap equal to ``gap``
    stays in the same session). The ordinal is exposed as a derived
    INT measure column named ``column``, usable in birth/age predicates,
    COHORT BY and aggregates like any stored column.
    """

    column: str = "session"
    gap: float = 1800.0

    def __post_init__(self):
        if not self.column:
            raise QueryError("SESSIONIZE requires a column name")
        if not self.gap > 0:
            raise QueryError("SESSIONIZE gap must be positive, got "
                             f"{self.gap!r}")


@dataclass(frozen=True)
class CohortQuery:
    """A single cohort query over a single activity table.

    Attributes:
        birth_action: the birth action ``e`` shared by all operators.
        cohort_by: the cohort attribute set ``L`` (order defines output
            columns). May include the time column, which is binned.
        aggregates: the measures to report per (cohort, age) bucket.
        birth_condition: ``σ^b`` condition over the birth tuple (optional).
        age_condition: ``σ^g`` condition over age tuples; may reference
            ``AGE`` and ``Birth(attr)`` (optional).
        age_unit: unit for age normalization ('day' by default).
        cohort_time_bin: bin width when cohorting by the time column.
        time_bin_origin: epoch-seconds alignment origin of time bins.
        table: source table name (used by engines with a catalog).
        sessionize: optional gap-based session derivation; adds a
            derived INT column visible to predicates, COHORT BY and
            aggregates (see :class:`SessionizeSpec`).
    """

    birth_action: str
    cohort_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    birth_condition: Condition = field(default_factory=TrueCondition)
    age_condition: Condition = field(default_factory=TrueCondition)
    age_unit: str = "day"
    cohort_time_bin: str = "week"
    time_bin_origin: int = 0
    table: str | None = None
    sessionize: SessionizeSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "cohort_by", tuple(self.cohort_by))
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        if not self.birth_action:
            raise QueryError("a cohort query requires a birth action")
        if not self.aggregates:
            raise QueryError("a cohort query requires at least one "
                             "aggregate in its SELECT list")
        if self.age_unit not in TIME_UNIT_SECONDS:
            raise QueryError(f"unknown age unit {self.age_unit!r}")
        if self.cohort_time_bin not in TIME_UNIT_SECONDS:
            raise QueryError(
                f"unknown cohort time bin {self.cohort_time_bin!r}")

    # -- validation ----------------------------------------------------------

    def validate(self, schema: ActivitySchema) -> None:
        """Check the query is well-formed for ``schema``.

        Raises:
            QueryError: on unknown attributes, non-numeric aggregate
                columns, cohort attributes violating Definition 6, a birth
                condition using ``AGE``/``Birth()``, or an age condition
                referencing attributes that do not exist.
        """
        schema = self.effective_schema(schema)
        try:
            schema.validate_cohort_attributes(list(self.cohort_by))
        except Exception as exc:
            raise QueryError(str(exc)) from None
        for agg in self.aggregates:
            if agg.column is not None:
                spec = schema.column(agg.column)
                if agg.needs_column and spec.role is not ColumnRole.MEASURE:
                    raise QueryError(
                        f"{agg} aggregates non-measure column "
                        f"{agg.column!r}")
        if self.birth_condition.uses_age():
            raise QueryError("the birth selection condition cannot "
                             "reference AGE")
        if self.birth_condition.birth_attributes():
            raise QueryError(
                "the birth selection condition applies to the birth tuple "
                "itself; use plain attribute references, not Birth()")
        for name in (self.birth_condition.plain_attributes()
                     | self.age_condition.plain_attributes()
                     | self.age_condition.birth_attributes()):
            schema.column(name)  # raises on unknown columns

    # -- derived properties ----------------------------------------------------

    def effective_schema(self, schema: ActivitySchema) -> ActivitySchema:
        """``schema`` augmented with this query's derived columns.

        The sessionize column appears as an INT measure so it can be
        referenced anywhere a stored measure can: predicates, COHORT BY
        and (numeric) aggregates. Raises QueryError if the derived name
        collides with a stored column.
        """
        if self.sessionize is None:
            return schema
        name = self.sessionize.column
        if name in schema:
            raise QueryError(
                f"SESSIONIZE column {name!r} collides with a stored "
                "column; pick another name with AS")
        return ActivitySchema(schema.columns + (
            ColumnSpec(name, LogicalType.INT, ColumnRole.MEASURE),))

    @property
    def output_columns(self) -> list[str]:
        """Column names of the query result relation."""
        return [*self.cohort_by, "cohort_size", "age",
                *(a.alias for a in self.aggregates)]
