"""The physical plan the chunk scheduler drives.

The planner's logical chain (:meth:`~repro.cohana.planner.CohortPlan
.logical`) is *lowered* here into one :class:`PhysicalPlan`: per chunk
it derives the SESSIONIZE column, if the query has one, and runs one
registered :class:`~repro.cohana.pipeline.ChunkKernel` (vectorized or
iterator), which fuses ``BirthSelect → AgeSelect → CohortProject →
CohortAggregate`` and returns the chunk's partial aggregates. The scan
itself needs no executor: pruning happened before a chunk was
dispatched.

Lowering (:func:`lower_plan`) is cheap, pure object construction — the
``processes`` backend re-lowers in each worker from the picklable plan,
so a physical plan never crosses a process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cohana.planner import CohortPlan
from repro.storage.chunk import Chunk
from repro.storage.reader import CompressedActivityTable

if TYPE_CHECKING:
    from repro.cohana.pipeline import ChunkKernel


# ---------------------------------------------------------------------------
# Derived-column views (how SESSIONIZE reaches unmodified kernels)
# ---------------------------------------------------------------------------


class DerivedSegment:
    """An in-memory int64 column segment for a derived column.

    Quacks just enough like a stored segment for every kernel access
    path: bulk decode for the vectorized kernel, random-access
    ``value_at`` for the iterator kernel's :class:`~repro.cohana
    .tablescan.LazyRow`. It is deliberately *not* a
    Dict/Delta/Raw-encoded column, so the compressed evaluator's
    ``_leaf_mask`` falls through to the decoded path for predicates
    over it — bit-identical masks in every scan mode.
    """

    def __init__(self, values: np.ndarray):
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    @property
    def nbytes(self) -> int:
        return self._values.nbytes

    def decode(self) -> np.ndarray:
        return self._values

    def value_at(self, position: int) -> int:
        return int(self._values[position])


class SessionChunk:
    """A chunk view adding one derived column; everything else delegates.

    Derived columns carry no zone maps (``zone_map`` answers None for
    them), so metadata pruning never reasons about values it cannot
    prove.
    """

    def __init__(self, base: Chunk, name: str, values: np.ndarray):
        self._base = base
        self._name = name
        self._segment = DerivedSegment(values)
        self.columns = {**base.columns, name: self._segment}

    def column(self, name: str):
        if name == self._name:
            return self._segment
        return self._base.column(name)

    def decode_codes(self, name: str) -> np.ndarray:
        if name == self._name:
            return self._segment.decode()
        return self._base.decode_codes(name)

    def zone_map(self, name: str):
        if name == self._name:
            return None
        return self._base.zone_map(name)

    def __getattr__(self, name: str):
        return getattr(self._base, name)


class SessionTable:
    """A table view whose schema includes the derived session column."""

    def __init__(self, base: CompressedActivityTable, schema):
        self._base = base
        self.schema = schema

    def __getattr__(self, name: str):
        return getattr(self._base, name)


def session_values(chunk: Chunk, time_name: str,
                   gap: float) -> np.ndarray:
    """Per-row session ordinals for one chunk, vectorized.

    Exploits the storage invariants the whole pipeline rests on: a
    user's tuples live in exactly one chunk, as one time-ordered run.
    The first tuple of each run opens session 1; a tuple opens a new
    session exactly when its gap to the previous tuple *exceeds*
    ``gap`` seconds (a gap equal to ``gap`` stays in the session).
    """
    times = chunk.decode_codes(time_name)
    n = len(times)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    _, run_starts, run_counts = chunk.users.arrays()
    diffs = np.empty(n, dtype=np.int64)
    diffs[0] = 0
    diffs[1:] = times[1:] - times[:-1]
    new_session = diffs > gap
    new_session[run_starts] = False  # runs always open a session
    boundary = np.cumsum(new_session)
    # Rebase each run so its first tuple counts as session 1.
    run_base = np.repeat(boundary[run_starts], run_counts)
    return (1 + boundary - run_base).astype(np.int64)


# ---------------------------------------------------------------------------
# The physical plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalPlan:
    """One plan lowered onto one kernel.

    ``execute_chunk`` is the scheduler's unit of work; ``describe``
    renders the logical chain root-first, the fused stages tagged with
    the kernel that runs them.
    """

    plan: CohortPlan
    kernel: ChunkKernel

    def execute_chunk(self, table: CompressedActivityTable,
                      chunk: Chunk):
        """The chunk's partial aggregates; a SESSIONIZE query's kernel
        sees the derived column as if it were stored."""
        query = self.plan.query
        spec = query.sessionize
        if spec is not None:
            values = session_values(chunk, table.schema.time.name,
                                    spec.gap)
            chunk = SessionChunk(chunk, spec.column, values)
            table = SessionTable(table, query.effective_schema(table.schema))
        return self.kernel.scan(table, chunk, self.plan)

    def describe(self, stats=None, result=None) -> str:
        """Render the plan, root-first, one line per logical stage.

        Without ``stats`` this is the static EXPLAIN form; with the
        :class:`~repro.cohana.pipeline.ExecStats` (and optionally the
        result) of an actual run, each line carries its rows-in /
        rows-out and prune counters (EXPLAIN ANALYZE form).
        """
        notes = _stage_annotations(stats, result)
        root, *rest = self.plan.logical().chain()
        lines = [f"{root.label()} [kernel={self.kernel.name}]"
                 f"{notes.get(root.name, '')}"]
        lines += [f"  {stage.label()}{notes.get(stage.name, '')}"
                  for stage in rest]
        return "\n".join(lines)


def _stage_annotations(stats, result) -> dict:
    """Per-stage counter annotations for EXPLAIN ANALYZE."""
    if stats is None:
        return {}
    notes = {
        "TableScan": (
            f" chunks={stats.chunks_scanned}/{stats.chunks_total}"
            f" pruned={stats.chunks_pruned}"
            f" (zone={stats.chunks_pruned_zone})"
            f" rows_out={stats.rows_scanned}"
            + (f" shards_reused={stats.shards_reused}"
               if stats.shards_reused else "")),
        "Sessionize": f" rows_in={stats.rows_scanned}"
                      f" rows_out={stats.rows_scanned}",
        "BirthSelect": f" users_in={stats.users_seen}"
                       f" users_out={stats.users_qualified}",
        "AgeSelect": f" rows_in={stats.rows_scanned}"
                     f" rows_out={stats.tuples_aggregated}",
    }
    if result is not None:
        n_label = result.n_cohort_columns
        cohorts = {row[:n_label] for row in result.rows}
        notes["CohortProject"] = (
            f" rows_in={stats.tuples_aggregated} cohorts={len(cohorts)}")
        notes["CohortAggregate"] = f" rows_out={len(result.rows)}"
    return notes


def lower_plan(plan: CohortPlan, kernel: ChunkKernel) -> PhysicalPlan:
    """Lower ``plan`` onto ``kernel``: the one place a physical plan is
    built."""
    return PhysicalPlan(plan=plan, kernel=kernel)
