"""COHANA's default (vectorized) per-chunk kernel.

Scans one chunk of a :class:`~repro.cohana.planner.CohortPlan`, fully
vectorized with numpy — the Python-level equivalent of the paper's tight
C++ scan loops (the repro hint for this paper: scan-speed claims need
vectorization). The per-chunk algorithm mirrors Algorithms 1-2:

1. walk the RLE user runs and locate each user's birth tuple (the first
   action-``e`` tuple of the run, thanks to the time-ordering property);
2. evaluate the birth condition *once per user* on the birth tuples and
   drop every tuple of unqualified users (push-down + SkipCurUser);
3. keep only the surviving tuples after their user's birth tuple, and
   only on those compute normalized ages, evaluate the age condition
   and aggregate into (cohort, age) buckets.

The kernel honours the plan's ``scan_mode``: under ``compressed`` the
birth-action search compares bit-packed *chunk-local* codes instead of
gathered global ids, birth-row attributes (birth condition, cohort
labels) are read at the birth rows only (:meth:`_ChunkExecutor.values_at`),
and the birth/age conditions go through
:func:`~repro.cohana.compressed.compressed_mask`, which evaluates
dictionary-column leaves once per distinct chunk value and short-circuits
range leaves against segment MIN/MAX. ``decoded`` keeps the fully
materialized path; both modes produce identical partials.

Chunk iteration, pruning, parallel dispatch and the cross-chunk merge all
live in :mod:`repro.cohana.pipeline`; this module only turns one
:class:`~repro.storage.chunk.Chunk` into a
:class:`~repro.cohana.pipeline.ChunkPartial`. All group keys stay in
global-dictionary id space until the scheduler decodes each segment's
labels once, so nothing is decoded to strings on the hot path.

Every group-by is on a dense 1-D ``int64`` key: cohort labels, ``(label,
age)`` buckets and USERCOUNT's ``(bucket, user)`` pairs are combined
column by column into one integer per row, never sorted as rows
(:func:`unique_rows`), and factorized without sorting where the key
domain is small (:func:`factorize`). USERCOUNT counts distinct pairs
without sorting at all: it relies on each user run being contiguous in
the selected rows and time-ordered inside the run (the §4.1 primary-key
order that step 1's birth-tuple search also relies on), so equal pairs
are adjacent.
"""

from __future__ import annotations

import numpy as np

from repro.cohana.compile import EvalContext, compile_mask
from repro.cohana.compressed import compressed_mask
from repro.cohana.pipeline import (
    ChunkKernel,
    ChunkPartial,
    fold_state,
    register_kernel,
)
from repro.cohana.planner import CohortPlan
from repro.schema import TIME_UNIT_SECONDS, ColumnRole, LogicalType
from repro.storage.chunk import Chunk
from repro.storage.dictionary import DictEncodedColumn
from repro.storage.reader import CompressedActivityTable
from repro.table.activity import factorize


class _RunContext(EvalContext):
    """Evaluation context over user runs (one 'row' per user)."""

    def __init__(self, executor: "_ChunkExecutor", birth_pos: np.ndarray):
        self._ex = executor
        self._birth_pos = birth_pos

    def rows(self) -> int:
        return len(self._birth_pos)

    def plain(self, name: str) -> np.ndarray:
        return self._ex.values_at(name, self._birth_pos)

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
        return self._ex.values_at(name, self._sel)

    def birth_value(self, name: str) -> np.ndarray:
        return self._ex.values_at(name, self._birth_pos)

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
        self.scan_mode = plan.scan_mode

    def column(self, name: str) -> np.ndarray:
        if name not in self._cache:
            col = self._chunk.columns.get(name)
            if isinstance(col, DictEncodedColumn):
                gids = self.chunk_gids(name)
                self._cache[name] = gids[self.local_ids(name)]
            else:
                self._cache[name] = self._chunk.decode_codes(name)
        return self._cache[name]

    def values_at(self, name: str, positions: np.ndarray) -> np.ndarray:
        """Column ``name`` at ``positions`` only.

        Under ``compressed`` a dictionary column maps just those rows'
        chunk ids through the chunk dictionary, so reading ~one birth
        row per user never gathers the whole column. ``decoded``
        materializes the column first, as that mode always does.
        """
        if self.scan_mode == "compressed" and isinstance(
                self._chunk.columns.get(name), DictEncodedColumn):
            return self.chunk_gids(name)[self.local_ids(name)[positions]]
        return self.column(name)[positions]

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

        # 3. cohort labels per qualified run (still in id space). The
        # partial carries them from here on, even if no row ages.
        q_runs = np.flatnonzero(qualified)
        uniq_labels, label_inverse = unique_rows(
            self._label_matrix(birth_pos[q_runs], birth_time[q_runs]))
        partial.labels = [tuple(row) for row in uniq_labels.tolist()]
        partial.sizes = np.bincount(label_inverse)
        run_label = np.full(n_runs, -1, dtype=np.int64)
        run_label[q_runs] = label_inverse

        # 4. row selection, as in Algorithm 2: only a qualified user's
        # tuples after its birth tuple get an age and face the age
        # condition. Push-down drops unqualified users' rows before
        # their ages are even computed; without it they are dropped
        # with the pre-birth rows instead.
        row_run = np.repeat(np.arange(n_runs, dtype=np.int64), run_counts)
        if plan.pushdown:
            rows = np.flatnonzero(qualified[row_run])
        else:
            rows = np.arange(chunk.n_rows, dtype=np.int64)
        runs = row_run[rows]
        raw_age = times[rows] - birth_time[runs]
        keep = raw_age > 0
        if not plan.pushdown:
            keep &= qualified[runs]
        rows, runs = rows[keep], runs[keep]
        if rows.size == 0:
            return
        unit = TIME_UNIT_SECONDS[query.age_unit]
        ages = (raw_age[keep] + unit - 1) // unit

        row_ctx = _RowContext(self, rows, birth_pos[runs], ages)
        keep = self._mask(query.age_condition, row_ctx, rows)
        if not keep.all():
            rows, runs, ages = rows[keep], runs[keep], ages[keep]
            if rows.size == 0:
                return
        partial.tuples_aggregated += rows.size

        # 5. (cohort, age) bucket aggregation. Labels are dense already;
        # with the ages factorized too, the bucket key is one int64
        # below rows**2. Rows stay in storage order, so each run is
        # contiguous in ``runs`` and its ages are non-decreasing.
        age_values, age_codes = factorize(ages)
        n_ages = len(age_values)
        uniq_keys, group = factorize(run_label[runs] * n_ages + age_codes)
        partial.bucket_label = uniq_keys // n_ages
        partial.bucket_age = age_values[uniq_keys % n_ages]
        partial.states = [
            self._aggregate(agg, group, len(uniq_keys), rows, runs)
            for agg in query.aggregates]

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
                cols.append(self.values_at(name, birth_pos))
        return np.stack(cols, axis=1)

    def _aggregate(self, agg, group: np.ndarray, n_groups: int,
                   agg_rows: np.ndarray, runs: np.ndarray):
        """Partial aggregate state per group for one aggregate spec.

        ``group`` holds dense bucket ids in ``[0, n_groups)``, every one
        present; ``runs`` is each row's user run, in storage order.
        """
        func = agg.func
        if func == "COUNT":
            return np.bincount(group, minlength=n_groups)
        if func == "USERCOUNT":
            # A (bucket, user) pair is new where the run or the bucket
            # changes: runs are contiguous and buckets non-decreasing
            # inside a run, so equal pairs are adjacent.
            new = np.ones(len(group), dtype=bool)
            new[1:] = (runs[1:] != runs[:-1]) | (group[1:] != group[:-1])
            return np.bincount(group[new], minlength=n_groups)
        # SUM, AVG's sum, MIN and MAX fold as partials merge.
        values = self.column(agg.column)[agg_rows]
        if func == "AVG":
            return (fold_state("SUM", values, group, n_groups),
                    np.bincount(group, minlength=n_groups))
        return fold_state(func, values, group, n_groups)


def unique_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``matrix`` and each row's index into them,
    as a row-wise unique (``axis=0``) returns them, but grouped on a 1-D
    key.

    Each column is coded by :func:`factorize` and folded into the key
    as ``key * n_c + code_c``; re-compacting after every column keeps the
    key below ``len(matrix)**2``, so it cannot overflow for any number
    of columns or value range. Codes preserve order, so the distinct
    rows come out in the same lexicographic order.
    """
    key = np.zeros(len(matrix), dtype=np.int64)
    for j in range(matrix.shape[1]):
        values, codes = factorize(matrix[:, j])
        key = key * len(values) + codes
        if j:
            _, key = factorize(key)
    rep = np.zeros(int(key.max()) + 1 if key.size else 0, dtype=np.int64)
    rep[key] = np.arange(len(key))  # any row of a group will do
    return matrix[rep], key


# ---------------------------------------------------------------------------
# Kernel entry points
# ---------------------------------------------------------------------------


def scan_chunk(table: CompressedActivityTable, chunk: Chunk,
               plan: CohortPlan) -> ChunkPartial:
    """The pure per-chunk kernel: one chunk in, one ChunkPartial out."""
    partial = ChunkPartial()
    _ChunkExecutor(table, chunk, plan).run(partial)
    return partial


KERNEL = register_kernel(ChunkKernel(name="vectorized", scan=scan_chunk,
                                     decoded_labels=False))
