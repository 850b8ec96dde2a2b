"""The physical operator tree the chunk scheduler drives.

The planner's logical chain (:meth:`~repro.cohana.planner.CohortPlan
.logical`) is *lowered* here into a small tree of executors with one
uniform protocol — ``execute(ctx) -> ChunkPartial | None`` over a
mutable per-chunk :class:`ChunkContext`:

* :class:`TableScanOp` — the leaf; the context already carries the
  (table, chunk) pair the scheduler selected, so the leaf just anchors
  the tree (and owns the pruning/scan-mode annotations in EXPLAIN);
* :class:`SessionizeOp` — derives the gap-based session-ordinal column
  and swaps transparent table/chunk *views* into the context, so every
  kernel downstream sees the derived column as if it were stored;
* :class:`KernelOp` — the fused implementation of ``BirthSelect →
  AgeSelect → CohortProject → CohortAggregate``: it wraps one
  registered :class:`~repro.cohana.pipeline.ChunkKernel` (vectorized or
  iterator, each honouring the plan's decoded/compressed scan mode) and
  returns the chunk's partial aggregates.

Lowering (:func:`lower_plan`) is cheap, pure object construction — the
``processes`` backend re-lowers in each worker from the picklable plan,
so physical operators never cross a process boundary.

Adding an operator (funnel steps, hash joins against dimension tables,
window functions) means adding one executor class here plus a logical
node in the planner; the three kernel files, the scheduler's backends,
pruning, sharded fan-out and the merge protocol are untouched — exactly
how :class:`SessionizeOp` landed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cohana.planner import CohortPlan, LogicalOp
from repro.cohort.query import SessionizeSpec
from repro.storage.chunk import Chunk
from repro.storage.reader import CompressedActivityTable


@dataclass
class ChunkContext:
    """Mutable per-chunk execution state threaded through the tree.

    Operators below the kernel refine ``table``/``chunk`` (possibly to
    derived-column views); the kernel consumes whatever the context
    holds when execution reaches it.
    """

    table: CompressedActivityTable
    chunk: Chunk
    plan: CohortPlan


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
# Physical operators
# ---------------------------------------------------------------------------


class PhysicalOp:
    """One executor node; the uniform protocol every operator obeys."""

    #: The logical node(s) this operator implements, root-last.
    stages: tuple[LogicalOp, ...] = ()

    def execute(self, ctx: ChunkContext):
        """Run over ``ctx``; return a ChunkPartial or None (context-only
        operators refine ``ctx`` for the operators above them)."""
        raise NotImplementedError


class TableScanOp(PhysicalOp):
    """The leaf: anchors the (table, chunk) pair the scheduler chose.

    Pruning happened before this chunk was ever dispatched (the
    scheduler proves skips from metadata alone), so executing the leaf
    is a no-op — it exists so the tree's shape matches the logical
    plan and EXPLAIN can hang scan/prune counters off it.
    """

    def __init__(self, stage: LogicalOp):
        self.stages = (stage,)

    def execute(self, ctx: ChunkContext) -> None:
        return


class SessionizeOp(PhysicalOp):
    """Derive the session column; downstream operators see it as stored."""

    def __init__(self, spec: SessionizeSpec, stage: LogicalOp):
        self.spec = spec
        self.stages = (stage,)

    def execute(self, ctx: ChunkContext) -> None:
        base_schema = ctx.table.schema
        values = session_values(ctx.chunk, base_schema.time.name,
                                self.spec.gap)
        ctx.chunk = SessionChunk(ctx.chunk, self.spec.column, values)
        ctx.table = SessionTable(
            ctx.table, ctx.plan.query.effective_schema(base_schema))


class KernelOp(PhysicalOp):
    """BirthSelect → AgeSelect → CohortProject → CohortAggregate, fused.

    The registered chunk kernels *are* the physical implementations of
    this fused pipeline — ``vectorized`` (array-at-a-time, id-space
    labels) and ``iterator`` (tuple-at-a-time, value-space labels) —
    each internally honouring the plan's scan mode (decoded /
    compressed). EXPLAIN expands this node back into its four logical
    stage lines, tagged with the kernel that fuses them.
    """

    def __init__(self, kernel, stages: tuple[LogicalOp, ...]):
        self.kernel = kernel
        self.stages = tuple(stages)

    def execute(self, ctx: ChunkContext):
        return self.kernel.scan(ctx.table, ctx.chunk, ctx.plan)


@dataclass(frozen=True)
class PhysicalPlan:
    """The lowered operator tree for one plan, leaf-first.

    ``execute_chunk`` is the scheduler's unit of work: it threads one
    :class:`ChunkContext` bottom-up through the operators and returns
    the chunk's partial aggregates.
    """

    plan: CohortPlan
    ops: tuple[PhysicalOp, ...]

    def execute_chunk(self, table: CompressedActivityTable,
                      chunk: Chunk):
        ctx = ChunkContext(table=table, chunk=chunk, plan=self.plan)
        partial = None
        for op in self.ops:
            produced = op.execute(ctx)
            if produced is not None:
                partial = produced
        return partial

    def describe(self, stats=None, result=None) -> str:
        """Render the tree, root-first, one line per operator stage.

        Without ``stats`` this is the static EXPLAIN form; with the
        :class:`~repro.cohana.pipeline.ExecStats` (and optionally the
        result) of an actual run, each line carries its rows-in /
        rows-out and prune counters (EXPLAIN ANALYZE form).
        """
        annotations = _stage_annotations(self, stats, result)
        lines = []
        for op in reversed(self.ops):  # root-first
            tag = (f" [kernel={op.kernel.name}]"
                   if isinstance(op, KernelOp) else "")
            for stage in reversed(op.stages):
                note = annotations.get(stage.name, "")
                lines.append(f"{stage.label()}{tag}{note}")
                tag = ""
        return "\n".join(line if i == 0 else f"  {line}"
                         for i, line in enumerate(lines))


def _stage_annotations(physical: PhysicalPlan, stats, result) -> dict:
    """Per-stage counter annotations for EXPLAIN ANALYZE."""
    if stats is None:
        return {}
    notes = {
        "TableScan": (
            f" chunks={stats.chunks_scanned}/{stats.chunks_total}"
            f" pruned={stats.chunks_pruned}"
            f" (zone={stats.chunks_pruned_zone})"
            f" rows_out={stats.rows_scanned}"),
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


def lower_plan(plan: CohortPlan, kernel) -> PhysicalPlan:
    """Lower a plan's logical chain to its physical operator tree.

    The logical chain is matched leaf-up: ``TableScan`` becomes the
    leaf operator, a ``Sessionize`` node (if present) becomes
    :class:`SessionizeOp`, and the remaining ``BirthSelect → AgeSelect
    → CohortProject → CohortAggregate`` stages fuse into one
    :class:`KernelOp` wrapping ``kernel``.
    """
    leaf_first = list(reversed(plan.logical().chain()))
    ops: list[PhysicalOp] = [TableScanOp(leaf_first[0])]
    i = 1
    if plan.query.sessionize is not None:
        ops.append(SessionizeOp(plan.query.sessionize, leaf_first[i]))
        i += 1
    ops.append(KernelOp(kernel, tuple(leaf_first[i:])))
    return PhysicalPlan(plan=plan, ops=tuple(ops))
