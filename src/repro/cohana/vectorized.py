"""COHANA's default (vectorized) per-chunk kernel.

Scans one chunk of a :class:`~repro.cohana.planner.CohortPlan`, fully
vectorized with numpy — the Python-level equivalent of the paper's tight
C++ scan loops (the repro hint for this paper: scan-speed claims need
vectorization). The per-chunk algorithm mirrors Algorithms 1-2:

1. walk the RLE user runs and locate each user's birth tuple (the first
   action-``e`` tuple of the run, thanks to the time-ordering property);
2. evaluate the birth condition *once per user* on the birth tuples and
   drop every tuple of unqualified users (push-down + SkipCurUser);
3. evaluate the age condition on the surviving rows, compute normalized
   ages, and aggregate into (cohort, age) buckets.

The kernel honours the plan's ``scan_mode``: under ``compressed`` (and
``auto`` over zone-mapped chunks) the birth-action search compares
bit-packed *chunk-local* codes instead of gathered global ids, and the
birth/age conditions go through
:func:`~repro.cohana.compressed.compressed_mask`, which evaluates
dictionary-column leaves once per distinct chunk value and short-circuits
range leaves against segment MIN/MAX. ``decoded`` keeps the fully
materialized path; both modes produce identical partials.

Chunk iteration, pruning, parallel dispatch and the cross-chunk merge all
live in :mod:`repro.cohana.pipeline`; this module only turns one
:class:`~repro.storage.chunk.Chunk` into a
:class:`~repro.cohana.pipeline.ChunkPartial`. All group keys stay in
global-dictionary id space until the final merge, so nothing is decoded
to strings on the hot path.

Every group-by is on a dense 1-D ``int64`` key: cohort labels, ``(label,
age)`` buckets and USERCOUNT's ``(bucket, user)`` pairs are combined
column by column into one integer per row, never sorted as rows
(:func:`unique_rows`). USERCOUNT counts distinct pairs without sorting at
all: it relies on each user run being contiguous in the selected rows
and time-ordered inside the run (the §4.1 primary-key order that step
1's birth-tuple search also relies on), so equal pairs are adjacent.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.cohana.compile import EvalContext, compile_mask
from repro.cohana.compressed import compressed_mask
from repro.cohana.pipeline import (
    ChunkKernel,
    ChunkPartial,
    register_kernel,
    resolve_scan_mode,
)
from repro.cohana.planner import CohortPlan
from repro.schema import TIME_UNIT_SECONDS, ColumnRole, LogicalType
from repro.storage.chunk import Chunk
from repro.storage.dictionary import DictEncodedColumn
from repro.storage.reader import CompressedActivityTable


class _RunContext(EvalContext):
    """Evaluation context over user runs (one 'row' per user)."""

    def __init__(self, executor: "_ChunkExecutor", birth_pos: np.ndarray):
        self._ex = executor
        self._birth_pos = birth_pos

    def rows(self) -> int:
        return len(self._birth_pos)

    def plain(self, name: str) -> np.ndarray:
        return self._ex.column(name)[self._birth_pos]

    def birth_value(self, name: str) -> np.ndarray:
        return self.plain(name)

    def age(self) -> np.ndarray:
        return np.zeros(len(self._birth_pos), dtype=np.int64)

    def dictionary_for(self, name: str):
        return self._ex.dictionary_for(name)


class _RowContext(EvalContext):
    """Evaluation context over selected activity rows."""

    def __init__(self, executor: "_ChunkExecutor", sel: np.ndarray,
                 birth_pos_of_row: np.ndarray, ages: np.ndarray):
        self._ex = executor
        self._sel = sel
        self._birth_pos = birth_pos_of_row
        self._ages = ages

    def rows(self) -> int:
        return len(self._sel)

    def plain(self, name: str) -> np.ndarray:
        return self._ex.column(name)[self._sel]

    def birth_value(self, name: str) -> np.ndarray:
        return self._ex.column(name)[self._birth_pos]

    def age(self) -> np.ndarray:
        return self._ages

    def dictionary_for(self, name: str):
        return self._ex.dictionary_for(name)


class _ChunkExecutor:
    """Executes the plan against one chunk, producing partial aggregates.

    Doubles as the chunk accessor for
    :func:`~repro.cohana.compressed.compressed_mask`: the bit-packed
    chunk ids and chunk-dictionary global ids are unpacked at most once
    and shared between the compressed evaluator and any decoded
    fallback (``column`` composes them, so switching domains never
    repeats work). Fixed per-chunk unpacks (RLE user triples, chunk
    dictionaries) live on the storage objects themselves
    (:meth:`RleColumn.arrays`, :meth:`DictEncodedColumn.global_ids`),
    so repeated queries over a resident table pay them once, not once
    per query.
    """

    def __init__(self, table: CompressedActivityTable, chunk: Chunk,
                 plan: CohortPlan):
        self._table = table
        self._chunk = chunk
        self._plan = plan
        self._cache: dict[str, np.ndarray] = {}
        self._local_ids: dict[str, np.ndarray] = {}
        self.schema = table.schema
        self.scan_mode = resolve_scan_mode(plan.scan_mode, chunk)

    def column(self, name: str) -> np.ndarray:
        if name not in self._cache:
            col = self._chunk.columns.get(name)
            if isinstance(col, DictEncodedColumn):
                gids = self.chunk_gids(name)
                self._cache[name] = gids[self.local_ids(name)]
            else:
                self._cache[name] = self._chunk.decode_codes(name)
        return self._cache[name]

    def chunk_column(self, name: str):
        """The encoded (compressed) segment for ``name``, or None."""
        return self._chunk.columns.get(name)

    def local_ids(self, name: str) -> np.ndarray:
        """Per-row chunk-local codes of a dictionary column (cached)."""
        if name not in self._local_ids:
            self._local_ids[name] = \
                self._chunk.columns[name].chunk_ids.unpack()
        return self._local_ids[name]

    def chunk_gids(self, name: str) -> np.ndarray:
        """Sorted distinct global ids of a dictionary column (cached on
        the storage segment, shared across queries)."""
        return self._chunk.columns[name].global_ids()

    def global_dictionary(self, name: str):
        return self._table.dictionary(name)

    def dictionary_for(self, name: str):
        spec = self.schema.column(name)
        if spec.ltype is LogicalType.STRING:
            return self._table.dictionary(name)
        return None

    def _mask(self, condition, ctx, positions: np.ndarray) -> np.ndarray:
        """Condition mask over ``positions``, in the mode's domain."""
        if self.scan_mode == "compressed":
            return compressed_mask(condition, ctx, self, positions)
        return compile_mask(condition, ctx)

    def _action_positions(self, gid: int) -> np.ndarray:
        """Row positions holding the birth action.

        Compressed mode binary-searches the chunk dictionary for the
        action's *local* code and compares the bit-packed chunk ids
        directly — no global-id gather. Decoded mode compares the
        materialized global-id array (and reuses it if the action
        column is needed again later).
        """
        col = self._chunk.columns.get(self.schema.action.name)
        if self.scan_mode == "compressed" and isinstance(
                col, DictEncodedColumn):
            name = self.schema.action.name
            gids = self.chunk_gids(name)
            pos = int(np.searchsorted(gids, gid))
            if pos >= gids.size or int(gids[pos]) != gid:
                return np.empty(0, dtype=np.int64)
            return np.flatnonzero(self.local_ids(name) == pos)
        return np.flatnonzero(self.column(self.schema.action.name) == gid)

    # -- the per-chunk algorithm --------------------------------------------

    def run(self, partial: ChunkPartial) -> None:
        plan = self._plan
        query = plan.query
        chunk = self._chunk
        partial.rows_scanned += chunk.n_rows

        rle = chunk.users
        run_ids, run_starts, run_counts = rle.arrays()
        n_runs = len(run_ids)
        partial.users_seen += n_runs
        if n_runs == 0:
            return

        times = self.column(self.schema.time.name)

        # 1. birth tuples: first action-e position inside each run.
        e_pos = self._action_positions(plan.birth_action_gid)
        if e_pos.size == 0:
            return
        idx = np.searchsorted(e_pos, run_starts)
        idx_c = np.minimum(idx, e_pos.size - 1)
        candidate = e_pos[idx_c]
        has_birth = (idx < e_pos.size) & (candidate
                                          < run_starts + run_counts)
        birth_pos = np.where(has_birth, candidate, 0)
        birth_time = times[birth_pos]

        # 2. birth selection, once per user.
        run_ctx = _RunContext(self, birth_pos)
        birth_mask = self._mask(query.birth_condition, run_ctx, birth_pos)
        qualified = has_birth & birth_mask
        n_qualified = int(qualified.sum())
        partial.users_qualified += n_qualified
        if n_qualified == 0:
            return

        # 3. cohort labels per qualified run (still in id space).
        q_runs = np.flatnonzero(qualified)
        uniq_labels, label_inverse = unique_rows(
            self._label_matrix(birth_pos[q_runs], birth_time[q_runs]))
        label_keys = [tuple(row) for row in uniq_labels.tolist()]
        partial.cohort_sizes = dict(zip(
            label_keys, np.bincount(label_inverse).tolist()))
        run_label = np.full(n_runs, -1, dtype=np.int64)
        run_label[q_runs] = label_inverse

        # 4. row selection: push-down skips unqualified users' rows now.
        row_run = np.repeat(np.arange(n_runs, dtype=np.int64), run_counts)
        qualified_rows = qualified[row_run]
        if plan.pushdown:
            sel = np.flatnonzero(qualified_rows)
        else:
            sel = np.arange(chunk.n_rows, dtype=np.int64)
        if sel.size == 0:
            return
        row_run_sel = row_run[sel]
        raw_age = times[sel] - birth_time[row_run_sel]
        ages = _normalize_ages(raw_age, query.age_unit)

        row_ctx = _RowContext(self, sel, birth_pos[row_run_sel], ages)
        age_mask = self._mask(query.age_condition, row_ctx, sel)
        agg_mask = (raw_age > 0) & age_mask
        if not plan.pushdown:
            agg_mask &= qualified_rows[sel]
        if not agg_mask.any():
            return
        partial.tuples_aggregated += int(agg_mask.sum())

        # 5. (cohort, age) bucket aggregation. Labels are dense already;
        # with the ages factorized too, the bucket key is one int64
        # below rows**2. Rows stay in storage order, so each run is
        # contiguous in ``agg_runs`` and its ages are non-decreasing.
        agg_rows = sel[agg_mask]
        agg_runs = row_run_sel[agg_mask]
        age_values, age_codes = np.unique(ages[agg_mask],
                                          return_inverse=True)
        n_ages = len(age_values)
        uniq_keys, group = np.unique(
            run_label[agg_runs] * n_ages + age_codes, return_inverse=True)
        group_keys = [(label_keys[key // n_ages], age)
                      for key, age in zip(
                          uniq_keys.tolist(),
                          age_values[uniq_keys % n_ages].tolist())]

        # One pass: keys are unique within a chunk, so each bucket's
        # slots are the aggregates' results at its group index.
        results = [self._aggregate(agg, group, len(uniq_keys), agg_rows,
                                   agg_runs)
                   for agg in query.aggregates]
        partial.buckets = {key: list(slots)
                           for key, slots in zip(group_keys, zip(*results))}

    def _label_matrix(self, birth_pos: np.ndarray,
                      birth_time: np.ndarray) -> np.ndarray:
        query = self._plan.query
        cols = []
        for name in query.cohort_by:
            spec = self.schema.column(name)
            if spec.role is ColumnRole.TIME:
                unit = TIME_UNIT_SECONDS[query.cohort_time_bin]
                origin = query.time_bin_origin
                cols.append(origin + ((birth_time - origin) // unit) * unit)
            else:
                cols.append(self.column(name)[birth_pos])
        return np.stack(cols, axis=1)

    def _aggregate(self, agg, group: np.ndarray, n_groups: int,
                   agg_rows: np.ndarray, runs: np.ndarray) -> list:
        """Partial aggregate per group for one aggregate spec.

        ``group`` holds dense bucket ids in ``[0, n_groups)``, every one
        present; ``runs`` is each row's user run, in storage order.
        """
        func = agg.func
        if func == "COUNT":
            return np.bincount(group, minlength=n_groups).tolist()
        if func == "USERCOUNT":
            # A (bucket, user) pair is new where the run or the bucket
            # changes: runs are contiguous and buckets non-decreasing
            # inside a run, so equal pairs are adjacent.
            new = np.ones(len(group), dtype=bool)
            new[1:] = (runs[1:] != runs[:-1]) | (group[1:] != group[:-1])
            return np.bincount(group[new], minlength=n_groups).tolist()
        values = self.column(agg.column)[agg_rows]
        if func in ("SUM", "AVG"):
            if self.schema.column(agg.column).ltype is LogicalType.INT:
                # Exact past 2**53, where bincount's float64 weights
                # round; Python ints where an int64 sum could wrap.
                bound = np.abs(values, dtype=np.float64).sum()
                if bound >= 2.0 ** 62:
                    values = values.astype(object)
                sums = np.zeros(n_groups, dtype=values.dtype)
                np.add.at(sums, group, values)
            else:
                sums = np.bincount(group, weights=values,
                                   minlength=n_groups)
            if func == "SUM":
                return sums.tolist()
            counts = np.bincount(group, minlength=n_groups)
            return list(zip(sums.tolist(), counts.tolist()))
        if func == "MIN":
            ufunc = np.minimum
        elif func == "MAX":
            ufunc = np.maximum
        else:  # pragma: no cover - validated upstream
            raise ExecutionError(f"unknown aggregate {func!r}")
        # Seed each bucket with its first value, then fold the rest in
        # storage order (reversed assignment: the last write wins).
        out = np.empty(n_groups, dtype=values.dtype)
        out[group[::-1]] = values[::-1]
        ufunc.at(out, group, values)
        return out.tolist()


def unique_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``matrix`` and each row's index into them,
    as a row-wise ``np.unique`` returns them, but grouped on a 1-D key.

    Each column is factorized with a 1-D unique and folded into the key
    as ``key * n_c + code_c``; re-compacting after every column keeps the
    key below ``len(matrix)**2``, so it cannot overflow for any number
    of columns or value range. Codes preserve order, so the distinct
    rows come out in the same lexicographic order.
    """
    key = np.zeros(len(matrix), dtype=np.int64)
    for j in range(matrix.shape[1]):
        values, codes = np.unique(matrix[:, j], return_inverse=True)
        key = key * len(values) + codes
        if j:
            _, key = np.unique(key, return_inverse=True)
    rep = np.zeros(int(key.max()) + 1 if key.size else 0, dtype=np.int64)
    rep[key] = np.arange(len(key))  # any row of a group will do
    return matrix[rep], key


def _normalize_ages(raw: np.ndarray, unit_name: str) -> np.ndarray:
    """Vectorized :func:`repro.cohort.concepts.normalize_age`."""
    unit = TIME_UNIT_SECONDS[unit_name]
    positive = (raw + unit - 1) // unit
    negative = -((-raw + unit - 1) // unit)
    return np.where(raw > 0, positive, np.where(raw < 0, negative, 0))


# ---------------------------------------------------------------------------
# Kernel entry points
# ---------------------------------------------------------------------------


def scan_chunk(table: CompressedActivityTable, chunk: Chunk,
               plan: CohortPlan) -> ChunkPartial:
    """The pure per-chunk kernel: one chunk in, one ChunkPartial out."""
    partial = ChunkPartial(n_aggregates=len(plan.query.aggregates))
    _ChunkExecutor(table, chunk, plan).run(partial)
    return partial


KERNEL = register_kernel(ChunkKernel(name="vectorized", scan=scan_chunk,
                                     decoded_labels=False))
