"""repro — a from-scratch reproduction of "Cohort Query Processing"
(Jiang et al., VLDB 2016) and the COHANA engine.

Public API highlights:

* :class:`repro.schema.ActivitySchema` / :class:`repro.table.ActivityTable`
  — the activity data model (Section 3.1).
* :class:`repro.cohort.CohortQuery` — the declarative cohort query
  (Section 3.4), parseable from the paper's SQL-style syntax.
* :class:`repro.cohana.CohanaEngine` — the columnar cohort engine
  (Section 4): compressed storage, pruning, push-down, skipping scan.
* :mod:`repro.baselines` — the non-intrusive SQL and materialized-view
  schemes (Section 2) on both bundled relational engines.
* :mod:`repro.datagen` — the synthetic mobile-game workload used by the
  benchmark suite (Section 5).
"""

from repro.schema import ActivitySchema, LogicalType
from repro.table import ActivityTable

__version__ = "1.0.0"

__all__ = [
    "ActivitySchema",
    "ActivityTable",
    "LogicalType",
    "__version__",
]
