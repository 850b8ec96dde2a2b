"""COHANA: the columnar cohort query engine (Section 4)."""

from repro.cohana.binder import bind_cohort_query
from repro.cohana.engine import CohanaEngine
from repro.cohana.operators import PhysicalPlan, lower_plan
from repro.cohana.parser import ParsedCohortQuery, parse_cohort_query
from repro.cohana.pipeline import (
    BACKENDS,
    KERNELS,
    ChunkKernel,
    ChunkPartial,
    ChunkScheduler,
    ExecStats,
    ExecutionConfig,
    register_kernel,
)
from repro.cohana.render import render_condition, render_query
from repro.cohana.planner import (
    SCAN_MODES,
    CohortPlan,
    ColumnBound,
    LogicalOp,
    extract_birth_bounds,
    extract_time_bounds,
    plan_query,
    required_columns,
)
from repro.cohana.tablescan import ChunkScan, LazyRow

__all__ = [
    "BACKENDS",
    "ChunkKernel",
    "ChunkPartial",
    "ChunkScan",
    "ChunkScheduler",
    "CohanaEngine",
    "CohortPlan",
    "ColumnBound",
    "ExecStats",
    "ExecutionConfig",
    "KERNELS",
    "LazyRow",
    "LogicalOp",
    "ParsedCohortQuery",
    "PhysicalPlan",
    "SCAN_MODES",
    "bind_cohort_query",
    "extract_birth_bounds",
    "extract_time_bounds",
    "lower_plan",
    "parse_cohort_query",
    "plan_query",
    "register_kernel",
    "render_condition",
    "render_query",
    "required_columns",
]
