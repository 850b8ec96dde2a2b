"""The chunk-pipeline execution core: scheduling, kernels, merging.

COHANA's storage invariant — all tuples of a user live in exactly one
chunk (Section 4.1) — makes chunks *independent* units of work: per-chunk
partial aggregates merge exactly, including distinct-user counts
(Section 4.5), and the append path keeps the same promise for shards.
This module exploits that invariant once, in one driver, instead of
each executor or table kind hand-rolling its own chunk loop:

* :class:`ChunkScheduler` runs a :class:`~repro.cohana.planner.CohortPlan`
  over a table's *segments* (:func:`table_segments`: a single file is a
  one-segment table, a sharded directory has one per shard, each planned
  against its own dictionaries when it is first scanned): it makes
  every pruning decision exactly once, dispatches the surviving
  ``(segment, chunk)`` tasks through a pluggable backend — in
  contiguous runs of chunks on the parallel ones — and merges every
  table on one path: a segment's :class:`ChunkPartial`\\ s are
  gathered in id space, in task order, by :class:`MergeState`, its
  labels are decoded once, and one fold runs over the segments in
  order. A segment already in a :class:`SegmentPartials` store (the
  engine's cache, a view's store), or a merged shard whose sources'
  partials are there, is neither planned nor scanned;
* :class:`ChunkKernel` is the pluggable per-chunk scan: a pure function
  ``(table, chunk, plan) -> ChunkPartial``. The ``vectorized`` and
  ``iterator`` executors register themselves here and contain *only*
  per-chunk logic. Kernels share no mutable state and only read the
  immutable compressed table, so they run concurrently over chunks
  without locks; the merge stays single-threaded in the scheduler. A
  partial is columns — distinct labels and their sizes, one entry per
  ``(label, age)`` bucket in each array — so merging is a
  concatenation, one ``factorize`` and one ``bincount`` /
  ``np.add.at`` per aggregate. Folding in task order, on every
  backend, makes FLOAT sums bit-identical across backends and runs;
* :class:`ExecutionConfig` selects the backend (``serial``, ``threads``
  or ``processes`` via :mod:`concurrent.futures`) and the worker count;
  the ``scan_mode`` (``compressed`` | ``decoded``) is the plan's.

The ``processes`` backend sidesteps the GIL entirely: the parent never
ships chunk data to workers — each task is just ``(path, content
digest, kernel name, plan, chunk indices of a run)`` for the persistent
pool of :mod:`repro.cohana.workers`, and one unfolded partial per run
comes back: a few numpy arrays. It therefore requires a table with a
``source_path`` (loaded from disk, not built in memory). One deliberate
cost remains: the parent's pruning pass touches every chunk's metadata,
which on a lazy table parses each chunk once in the parent.

Pruning is metadata-exact, not heuristic: every skip is proven from
persisted storage metadata (:func:`prune_reason` lists the evidence;
zone maps are :mod:`repro.storage.zonemap`), so results are identical
with pruning on or off.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import CatalogError, ExecutionError
from repro.cohana import workers
from repro.cohana.operators import PhysicalPlan, lower_plan
from repro.cohana.planner import CohortPlan, plan_query
from repro.cohort.query import CohortQuery
from repro.cohort.result import CohortResult
from repro.schema import ColumnRole, LogicalType, format_timestamp
from repro.storage.chunk import Chunk
from repro.storage.dictionary import DictEncodedColumn
from repro.storage.reader import CompressedActivityTable
from repro.storage.sharded import combine_logical
from repro.table.activity import factorize

#: Backends the scheduler can dispatch scan tasks through.
BACKENDS = ("serial", "threads", "processes")


@dataclass
class ExecStats:
    """Counters describing what one execution actually touched.

    ``chunks_pruned_zone`` counts the subset of ``chunks_pruned`` that
    only the coded-domain metadata path (persisted zone maps /
    chunk-dictionary membership on non-action birth bounds) could
    prove prunable; the invariant
    ``chunks_pruned + chunks_scanned == chunks_total`` always holds,
    on every table kind and with ``prune`` on or off: a birth action
    absent from a segment's global dictionary puts all the segment's
    chunks in ``chunks_pruned`` (not ``chunks_pruned_zone``).
    ``shards_total`` / ``shards_scanned`` / ``shards_reused`` describe
    sharded tables and stay zero for single-file tables:
    ``shards_scanned`` counts shards with at least one surviving scan
    task, ``shards_reused`` shards served or composed from a
    :class:`SegmentPartials` store, and every other shard had all its
    chunks pruned. No chunk or row counter covers a reused segment —
    not even ``chunks_total`` — so the chunk invariant holds over the
    scanned segments.

    ``cache_disposition`` is set by the query service
    (:mod:`repro.service`) and records how it answered this call:
    ``'hit'`` (served from cache), ``'miss'`` (executed and cached),
    ``'bypass'`` (caching disabled for the call), ``'invalidated'`` (a
    cached result existed but its table version token no longer
    matches — executed and re-cached) or ``'refresh'`` (a materialized
    view was served after incrementally scanning newly appended shards;
    see :mod:`repro.views`); direct engine executions leave it None. On
    a hit the scan counters describe the *original* cold execution that
    produced the cached result. Cache-wide counters live on the cache
    that owns them (``QueryService.stats_snapshot()``).

    ``admission_wait_seconds`` is stamped by the HTTP frontend
    (:mod:`repro.service.http`): how long *this* request waited for an
    execution slot. The server's aggregate counters are ``GET /stats``.
    Off-wire executions leave it at zero.
    """

    chunks_total: int = 0
    chunks_scanned: int = 0
    chunks_pruned: int = 0
    chunks_pruned_zone: int = 0
    shards_total: int = 0
    shards_scanned: int = 0
    shards_reused: int = 0
    rows_scanned: int = 0
    users_seen: int = 0
    users_qualified: int = 0
    tuples_aggregated: int = 0
    cache_disposition: str | None = None
    admission_wait_seconds: float = 0.0


@dataclass(frozen=True)
class ExecutionConfig:
    """How the scheduler runs a plan's scan tasks.

    Attributes:
        backend: ``'serial'`` (in-process loop), ``'threads'``
            (:class:`concurrent.futures.ThreadPoolExecutor`) or
            ``'processes'`` (the persistent worker pool of
            :mod:`repro.cohana.workers` over a table loaded from a
            ``.cohana`` file; workers open the file by path). An
            explicitly requested parallel backend is honoured even at
            ``jobs=1``.
        jobs: how many of this query's scan tasks — runs of about
            ``chunks / (2 * jobs)`` chunks — run at once on a parallel
            backend (ignored by ``serial``). The ``processes``
            pool holds as many workers as the largest ``jobs`` any
            query has needed.
    """

    backend: str = "serial"
    jobs: int = 1

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ExecutionError(
                f"unknown backend {self.backend!r}; have {BACKENDS}")
        if self.jobs < 1:
            raise ExecutionError(f"jobs must be >= 1, got {self.jobs}")

    @classmethod
    def resolve(cls, jobs: int = 1, backend: str | None = None,
                table: "CompressedActivityTable | None" = None,
                ) -> "ExecutionConfig":
        """Build a config from loose options.

        ``backend=None`` picks ``serial`` at ``jobs=1``; at ``jobs > 1``
        it picks ``processes`` when ``table`` is known to live on disk
        (it has a ``source_path``, so workers can reopen it by path) and
        ``threads`` otherwise.
        """
        if backend is None:
            if jobs > 1:
                on_disk = (table is not None
                           and getattr(table, "source_path", None))
                backend = "processes" if on_disk else "threads"
            else:
                backend = "serial"
        return cls(backend=backend, jobs=jobs)

    def describe(self) -> str:
        """Compact one-line rendering for EXPLAIN output."""
        return f"Execution(backend={self.backend}, jobs={self.jobs})"


def _empty_ints() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass
class ChunkPartial:
    """The partial aggregates of one chunk, or of several, as columns,
    plus scan counters.

    ``labels`` are the partial's distinct cohort label tuples and
    ``sizes`` (int64) their qualified-user counts. Bucket ``i`` is the
    cohort ``labels[bucket_label[i]]`` at age ``bucket_age[i]``, and
    ``states[j][i]`` its partial state for the ``j``-th aggregate of the
    SELECT list: an int64 array (object past the 2**62 overflow guard)
    or a float64 one; AVG's is a ``(sums, counts)`` pair of arrays.
    ``states`` is empty exactly when there are no buckets. A kernel's
    buckets are distinct; a concatenation of several chunks' partials
    (:meth:`MergeState.partial` with ``fold=False``) may repeat one.
    Every kernel emits this one format, so the scheduler merges partials
    from any kernel family the same way.
    """

    labels: list[tuple] = field(default_factory=list)
    sizes: np.ndarray = field(default_factory=_empty_ints)
    bucket_label: np.ndarray = field(default_factory=_empty_ints)
    bucket_age: np.ndarray = field(default_factory=_empty_ints)
    states: list = field(default_factory=list)
    rows_scanned: int = 0
    users_seen: int = 0
    users_qualified: int = 0
    tuples_aggregated: int = 0


def state_array(values: list) -> np.ndarray:
    """Per-bucket partial states from Python numbers: float64 if any is
    a float, else int64 — or object where an int does not fit."""
    if any(isinstance(v, float) for v in values):
        return np.array(values, dtype=np.float64)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def finalize_partial(func: str, state):
    """Turn a fully merged partial state into the output value."""
    if state is None:
        return None
    if func == "AVG":
        total, count = state
        return total / count if count else None
    return state


@dataclass(frozen=True)
class ChunkKernel:
    """A per-chunk scan implementation.

    Attributes:
        name: registry key (``'vectorized'``, ``'iterator'``, ...).
        scan: pure function ``(table, chunk, plan) -> ChunkPartial``.
        decoded_labels: True when the kernel emits already-decoded cohort
            labels (strings / formatted timestamps); False when labels
            stay in global-dictionary id space until the scheduler
            decodes the segment's partial.
    """

    name: str
    scan: Callable[[CompressedActivityTable, Chunk, CohortPlan],
                   ChunkPartial]
    decoded_labels: bool = False


#: Kernel registry: executors register themselves at import time.
KERNELS: dict[str, ChunkKernel] = {}


def register_kernel(kernel: ChunkKernel) -> ChunkKernel:
    """Add ``kernel`` to the registry (last registration wins).

    Forked scan workers know the registry as it was when they forked,
    so a registration stops them; the next ``processes`` query forks
    workers that see this kernel. (Removing a name needs no such step:
    the parent rejects an unknown kernel before anything is
    dispatched.)
    """
    KERNELS[kernel.name] = kernel
    workers.shutdown(wait=False)
    return kernel


def get_kernel(name: str) -> ChunkKernel:
    """Look up a registered kernel; unknown names raise CatalogError
    (the same contract the engine's executor option always had)."""
    try:
        return KERNELS[name]
    except KeyError:
        raise CatalogError(f"unknown executor {name!r}; "
                           f"have {sorted(KERNELS)}") from None


# ---------------------------------------------------------------------------
# Chunk pruning (decided once, in the scheduler)
# ---------------------------------------------------------------------------


def prune_reason(table: CompressedActivityTable, chunk: Chunk,
                 plan: CohortPlan) -> str | None:
    """Why ``chunk`` is prunable — or None when it must be scanned.
    Every check is exact, from storage metadata alone (nothing is
    decoded): a pruned chunk hosts no qualifying birth tuple and, since
    no user spans chunks, contributes nothing to the result.

    * ``'action'`` — the birth action's global id is absent from the
      chunk's action dictionary (Section 4.1; all modes);
    * ``'time'`` — the birth condition's time bounds miss the chunk's
      time MIN/MAX (Section 4.1; all modes);
    * ``'zonemap'`` — a coded-domain birth bound is disjoint from the
      chunk's persisted zone map, an equality/IN constraint has no
      member in the chunk dictionary, or the birth condition is
      unsatisfiable table-wide. Only applied when
      ``plan.scan_mode != 'decoded'`` (``decoded`` is the legacy
      baseline the benchmarks compare against).
    """
    if not table.chunk_may_contain_action(chunk, plan.birth_action_gid):
        return "action"
    if plan.time_low is not None or plan.time_high is not None:
        time_name = table.schema.time.name
        if not table.chunk_overlaps_range(chunk, time_name, plan.time_low,
                                          plan.time_high):
            return "time"
    if plan.scan_mode != "decoded":
        if not plan.birth_satisfiable:
            return "zonemap"
        for bound in plan.birth_bounds:
            col = chunk.columns.get(bound.column)
            if (bound.gids is not None
                    and isinstance(col, DictEncodedColumn)
                    and not col.contains_any_global_id(bound.gids)):
                return "zonemap"
            zone = chunk.zone_map(bound.column)
            if zone is not None and not zone.overlaps(bound.low,
                                                      bound.high):
                return "zonemap"
    return None


# ---------------------------------------------------------------------------
# Streaming merge
# ---------------------------------------------------------------------------


class MergeState:
    """Collects ChunkPartials in the order they arrive and folds them
    once into table-wide totals.

    Partials of different chunks share no mutable state and no user
    (Section 4.1), so they merge exactly; folding them in one pass, in
    arrival order, makes FLOAT sums depend on that order alone — the
    scheduler's task order, the same on every backend.
    """

    def __init__(self, query: CohortQuery):
        self.query = query
        #: The merge-local label table: every label seen, in first-seen
        #: order, and its qualified-user count.
        self.labels: list[tuple] = []
        self._sizes: list[int] = []
        self._label_index: dict[tuple, int] = {}
        #: ``(merge-local label per bucket, partial)`` in arrival order.
        self._parts: list[tuple[np.ndarray, ChunkPartial]] = []
        self.rows_scanned = 0
        self.users_seen = 0
        self.users_qualified = 0
        self.tuples_aggregated = 0

    def absorb(self, partial: ChunkPartial, stats: ExecStats | None,
               collect_stats: bool = True) -> None:
        """Append one partial; nothing is folded until :meth:`partial`.

        ``collect_stats=False`` leaves the row counters of ``stats``
        alone, for callers that counted the scan already (a view's warm
        partials cost none).
        """
        index = self._label_index
        local = []
        for label, size in zip(partial.labels, partial.sizes.tolist()):
            at = index.get(label)
            if at is None:
                at = index[label] = len(self.labels)
                self.labels.append(label)
                self._sizes.append(0)
            self._sizes[at] += size
            local.append(at)
        if partial.bucket_age.size:
            self._parts.append(
                (np.array(local, dtype=np.int64)[partial.bucket_label],
                 partial))
        _count_rows(self, partial)
        if collect_stats and stats is not None:
            _count_rows(stats, partial)

    def partial(self, fold: bool = True) -> ChunkPartial:
        """Everything absorbed so far as one partial over the merge-local
        label table: its buckets concatenated in arrival order, and with
        ``fold`` grouped by ``(label, age)`` and folded — once: the
        folded buckets replace the absorbed ones."""
        out = ChunkPartial(labels=list(self.labels),
                           sizes=np.array(self._sizes, dtype=np.int64))
        _count_rows(out, self)
        if not self._parts:
            return out
        funcs = [agg.func for agg in self.query.aggregates]
        label = np.concatenate([local for local, _ in self._parts])
        age = np.concatenate([p.bucket_age for _, p in self._parts]
                             ).astype(np.int64, copy=False)
        states = [_concat_state(func, [p.states[j] for _, p in self._parts])
                  for j, func in enumerate(funcs)]
        if not fold:
            out.bucket_label, out.bucket_age, out.states = label, age, states
            return out
        age_values, age_codes = factorize(age)
        n_ages = len(age_values)
        keys, group = factorize(label * n_ages + age_codes)
        out.bucket_label = keys // n_ages
        out.bucket_age = age_values[keys % n_ages]
        out.states = [fold_state(func, values, group, len(keys))
                      for func, values in zip(funcs, states)]
        self._parts = [(out.bucket_label, out)]
        return out


def narrowed(partial: ChunkPartial) -> ChunkPartial:
    """``partial`` with its size, label and age columns in the smallest
    integer dtype that holds them, for a cache to keep; absorbing and
    folding widen them again."""
    def narrow(values: np.ndarray) -> np.ndarray:
        if not values.size:
            return values
        return values.astype(np.result_type(
            np.min_scalar_type(int(values.min())),
            np.min_scalar_type(int(values.max()))))
    return replace(partial, sizes=narrow(partial.sizes),
                   bucket_label=narrow(partial.bucket_label),
                   bucket_age=narrow(partial.bucket_age))


def concatenate(query: CohortQuery, partials) -> ChunkPartial:
    """``partials`` end to end, unfolded (a worker's run of chunks)."""
    state = MergeState(query)
    for partial in partials:
        state.absorb(partial, None)
    return state.partial(fold=False)


def _concat_state(func: str, column: list):
    """One aggregate's states of several partials, end to end."""
    if func == "AVG":
        return tuple(np.concatenate(part) for part in zip(*column))
    return np.concatenate(column)


def fold_state(func: str, values, group: np.ndarray, n_groups: int):
    """Fold one aggregate's concatenated states into ``n_groups``
    buckets, each in concatenation order. The vectorized kernel folds a
    chunk's measure values with it too: a value is a one-row state."""
    if func == "AVG":
        sums, counts = values
        return (fold_state("SUM", sums, group, n_groups),
                fold_state("COUNT", counts, group, n_groups))
    if func in ("MIN", "MAX"):
        # Seed each bucket with its first state, then fold them all
        # (reversed assignment: the last write wins).
        out = np.empty(n_groups, dtype=values.dtype)
        out[group[::-1]] = values[::-1]
        (np.minimum if func == "MIN" else np.maximum).at(out, group, values)
        return out
    if values.dtype.kind == "f":
        # bincount adds in input order: the fold order is the order the
        # partials were absorbed in.
        return np.bincount(group, weights=values, minlength=n_groups)
    # Exact integer sums (bincount's float64 weights round past 2**53):
    # Python ints where an int64 total could wrap.
    if (values.dtype != object
            and np.abs(values, dtype=np.float64).sum() >= 2.0 ** 62):
        values = values.astype(object)
    sums = np.zeros(n_groups, dtype=values.dtype)
    np.add.at(sums, group, values)
    return sums


def _count_rows(into: "ExecStats | ChunkPartial | MergeState",
                partial: "ChunkPartial | MergeState") -> None:
    """Add one partial's row counters (both targets carry them)."""
    into.rows_scanned += partial.rows_scanned
    into.users_seen += partial.users_seen
    into.users_qualified += partial.users_qualified
    into.tuples_aggregated += partial.tuples_aggregated


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


def table_segments(table: CompressedActivityTable,
                   ) -> list[CompressedActivityTable]:
    """The parts of ``table`` that carry their own global dictionaries:
    its shards, or the table itself — a single file is a one-segment
    table. The one place that asks which kind of table it was given."""
    if getattr(table, "is_sharded", False):
        return list(table.shards)
    return [table]


@dataclass(eq=False)
class Segment:
    """One segment of a table, and the query it runs.

    No user spans chunks (writer invariant) or shards
    (:func:`~repro.storage.sharded.append_shard` invariant), so partials
    of any chunk of any segment merge exactly — including USERCOUNT. But
    global ids mean something only inside their segment: its plan and
    physical plan live here, and are built against its own dictionaries
    from ``template``'s query and options.
    """

    table: CompressedActivityTable
    template: CohortPlan
    kernel: ChunkKernel
    #: The manifest entry naming the segment, when it is a shard.
    entry: dict | None = None

    @cached_property
    def plan(self) -> CohortPlan:
        """Planned on first use, so never for a segment whose partial
        was stored."""
        t = self.template
        return plan_query(t.query, self.table, pushdown=t.pushdown,
                          prune=t.prune, scan_mode=t.scan_mode)

    @cached_property
    def physical(self) -> PhysicalPlan:
        """Lowered on first use, so never for a segment without tasks."""
        return lower_plan(self.plan, self.kernel)


class SegmentPartials(NamedTuple):
    """A store of one query's folded value-space segment partials,
    filed by the segment's content digest — exact for as long as those
    bytes exist, since no user spans two segments — or, for a table
    built in memory, by its version ``token``. There are two: the
    engine's cache and a view's persisted store (repolint ``one-store``)."""

    get: Callable[[str], "ChunkPartial | None"]
    put: Callable[[str, "ChunkPartial"], None]
    token: str


@dataclass(frozen=True)
class ScanTask:
    """One unit of scan work: a chunk that survived pruning."""

    chunk: Chunk
    index: int  # of the chunk within ``segment.table``
    segment: Segment


def shard_value_partial(shard: CompressedActivityTable, query: CohortQuery,
                        kernel: "ChunkKernel | str" = "vectorized",
                        config: ExecutionConfig | None = None,
                        stats: ExecStats | None = None) -> ChunkPartial:
    """Scan one segment into a single folded *value-space*
    :class:`ChunkPartial` — the unit a :class:`SegmentPartials` store
    holds: :meth:`ChunkScheduler.segment_partials` of a one-segment
    table, folded.

    Labels are decoded through the segment's own dictionaries, so
    partials of different shards, or of one shard cached at different
    times, merge exactly. ``stats`` accumulates this scan's counters; the
    returned partial carries the row counters too.
    """
    plan = plan_query(query, shard)
    (partial,) = ChunkScheduler(shard, plan, kernel, config).segment_partials(
        stats if stats is not None else ExecStats())
    state = MergeState(query)
    state.absorb(partial, None)
    return state.partial()


class ChunkScheduler:
    """Runs a plan over a table's segments: prune once, run the
    physical plan per chunk, fold the partials once.

    ``plan`` is the plan of the table's first segment (of a single
    file, the file), which that segment runs as is; every other segment
    is planned against its own dictionaries when :meth:`tasks` first
    reaches it. A segment ``partials`` holds is neither planned nor
    scanned. Plans are lowered here for
    ``serial`` and ``threads``; ``processes`` ships the picklable plan
    and re-lowers in each worker. The scheduler owns no process pool: it
    keeps at most ``jobs`` of its tasks in flight on the shared one, and
    a failing task cancels only this query's queued tasks.
    """

    def __init__(self, table: CompressedActivityTable, plan: CohortPlan,
                 kernel: ChunkKernel | str,
                 config: ExecutionConfig | None = None,
                 partials: SegmentPartials | None = None):
        self.table = table
        self.config = config or ExecutionConfig()
        self.plan = plan
        self.partials = partials
        self.kernel = (get_kernel(kernel) if isinstance(kernel, str)
                       else kernel)
        manifest = getattr(table, "manifest", None)
        entries = manifest["shards"] if manifest else [None]
        self.segments = [Segment(part, plan, self.kernel, entry)
                         for part, entry in zip(table_segments(table),
                                                entries)]
        self.segments[0].plan = plan  # planned already: run it as is

    @property
    def physical(self) -> PhysicalPlan:
        """The lowered plan of a one-segment table, for callers that
        drive its chunks themselves."""
        (segment,) = self.segments
        return segment.physical

    def tasks(self, stats: ExecStats | None = None,
              segments: list[Segment] | None = None) -> list[ScanTask]:
        """The scan tasks left after pruning ``segments`` (default: all;
        the single place pruning decisions are made and counted)."""
        stats = stats if stats is not None else ExecStats()
        tasks: list[ScanTask] = []
        for segment in self.segments if segments is None else segments:
            plan = segment.plan
            if plan.birth_action_gid is None:
                # Absent from the segment's global dictionary: the
                # segment-wide action chunk-dictionary miss, counted like
                # it. No id to scan for, so ``prune`` off changes nothing.
                stats.chunks_pruned += segment.table.n_chunks
                continue
            survivors = len(tasks)
            for i, chunk in enumerate(segment.table.chunks):
                if plan.prune:
                    reason = prune_reason(segment.table, chunk, plan)
                    if reason is not None:
                        stats.chunks_pruned += 1
                        if reason == "zonemap":
                            stats.chunks_pruned_zone += 1
                        continue
                stats.chunks_scanned += 1
                tasks.append(ScanTask(chunk=chunk, index=i,
                                      segment=segment))
            if len(tasks) > survivors and segment.table is not self.table:
                stats.shards_scanned += 1
        return tasks

    def segment_partials(self, stats: ExecStats) -> list[ChunkPartial]:
        """Every segment's value-space partial, in segment order.

        A segment ``partials`` holds, or can compose
        (:meth:`_composed`), is not scanned; the others share one
        :meth:`_scan` and absorb their chunks in id space, in task order.
        A segment is folded only when its partial is filed or merged with
        another segment's (and has more than one chunk: one chunk's
        buckets are distinct); a lone segment's buckets wait for the one
        fold in :func:`build_rows`. Its labels are then decoded once:
        distinct ids of a segment decode to distinct values, so neither
        the first-seen label order nor a bucket moves. ``stats`` counts
        the shards, and the rows of the scanned segments only."""
        store = self.partials
        keys = [s.table.content_digest or (store and store.token)
                for s in self.segments]
        out = [store and store.get(key) for key in keys]
        for i, segment in enumerate(self.segments):
            if store and out[i] is None:
                out[i] = self._composed(store, segment.entry)
                if out[i] is not None:
                    store.put(keys[i], out[i])
        shards = [s.table is not self.table for s in self.segments]
        stats.shards_total += sum(shards)
        stats.shards_reused += sum(shard and partial is not None
                                   for shard, partial in zip(shards, out))
        states = {segment: MergeState(self.plan.query)
                  for segment, partial in zip(self.segments, out)
                  if partial is None}
        stats.chunks_total += sum(s.table.n_chunks for s in states)
        tasks = self.tasks(stats, list(states))
        chunks = Counter(task.segment for task in tasks)
        for segment, partial in self._scan(tasks):
            states[segment].absorb(partial, stats)
        merged = store is not None or len(self.segments) > 1
        for i, segment in enumerate(self.segments):
            if segment in states:
                out[i] = states[segment].partial(
                    fold=merged and chunks[segment] > 1)
                if not self.kernel.decoded_labels:
                    out[i].labels = decode_labels(
                        segment.table, self.plan.query, out[i].labels)
                if store:
                    store.put(keys[i], out[i])
        return out

    def _composed(self, store: SegmentPartials,
                  entry: dict | None) -> ChunkPartial | None:
        """The partial of a shard that a compaction merged, folded from
        its sources' partials in ``store`` — or None.

        No user spans two sources, so their partials merge exactly, as
        two shards' do in a read. Three conditions guard it: every
        source's partial is held (a source is looked up, never composed
        in turn); the sources' logical digests sum to the entry's, so a
        ``merged_from`` that lies is a miss, not a wrong answer; and no
        aggregate reads a FLOAT: folding the sources' sums re-associates
        FLOAT additions, and a scan of the merged shard adds in its own
        chunk order, which every other read of it repeats."""
        sources = entry.get("merged_from") if entry else None
        if not sources:
            return None
        total = combine_logical(logical for _digest, logical in sources)
        query = self.plan.query
        schema = query.effective_schema(self.table.schema)
        if total != entry["logical_digest"] or any(
                agg.column is not None
                and schema.column(agg.column).ltype is LogicalType.FLOAT
                for agg in query.aggregates):
            return None
        state = MergeState(query)
        for digest, _logical in sources:
            partial = store.get(digest)
            if partial is None:
                return None
            state.absorb(partial, None)
        return state.partial()

    def run(self) -> tuple[CohortResult, ExecStats]:
        """Execute the plan and build the result relation from
        :meth:`segment_partials`, in segment order — one path and one
        fold order for a file, a sharded table, the service and a
        view."""
        query = self.plan.query
        stats = ExecStats()
        state = MergeState(query)
        for partial in self.segment_partials(stats):
            # Already counted into ``stats`` when it was scanned.
            state.absorb(partial, stats, collect_stats=False)
        rows = build_rows(self.table, state, True)
        return (CohortResult(columns=query.output_columns, rows=rows,
                             n_cohort_columns=len(query.cohort_by)),
                stats)

    def _scan(self, tasks: list[ScanTask]):
        """Yield ``(segment, ChunkPartial)`` in task order, whatever the
        backend; one pool serves every segment's tasks.

        ``serial`` yields one partial per chunk. The parallel backends
        scan :func:`scan_runs` — a worker task per contiguous run of a
        segment's chunks — and ``processes`` gets each run back as one
        unfolded partial, its chunks concatenated in order; either way
        the fold sees the buckets serial would, in the same order.

        An explicitly requested parallel backend is honoured even at
        ``jobs=1`` or with a single surviving task, so backend-specific
        code paths are exercised whenever the caller asked for them;
        only ``backend='serial'`` (or an empty task list) runs inline.
        """
        if not tasks:
            return
        if self.config.backend == "serial":
            for task in tasks:
                segment = task.segment
                yield segment, segment.physical.execute_chunk(
                    segment.table, task.chunk)
            return
        runs = scan_runs(tasks, 2 * self.config.jobs)
        n_workers = min(self.config.jobs, len(runs))
        if self.config.backend == "processes":
            calls = []
            for run in runs:
                segment = run[0].segment
                calls.append((segment, (
                    _require_source_path(segment.table),
                    segment.table.content_digest, self.kernel.name,
                    segment.plan, [task.index for task in run])))
            yield from workers.scan_in_workers(calls, n_workers)
            return
        pool = ThreadPoolExecutor(max_workers=n_workers)
        try:
            # ``physical`` is read here, in the submitting thread, so
            # each segment is lowered once.
            futures = [(run[0].segment,
                        pool.submit(_scan_here, run[0].segment.physical,
                                    run))
                       for run in runs]
            for segment, future in futures:
                for partial in future.result():
                    yield segment, partial
        finally:
            # Also on failure, or when the consumer abandons the scan:
            # cancel every queued task and stop the pool before the
            # exception propagates, so nothing scans for a dead query.
            pool.shutdown(wait=True, cancel_futures=True)


def scan_runs(tasks: list[ScanTask], n_runs: int) -> list[list[ScanTask]]:
    """Cut ``tasks`` into about ``n_runs`` runs of consecutive tasks of
    one segment each, as even as the segment boundaries allow. No user
    spans chunks, so a run is as exact a unit of work as a chunk, and
    one task per run pays the dispatch cost once for several chunks."""
    longest = -(-len(tasks) // n_runs)
    runs: list[list[ScanTask]] = []
    for _segment, group in groupby(tasks, key=lambda task: task.segment):
        seg = list(group)
        k = -(-len(seg) // longest)
        runs.extend(seg[i * len(seg) // k:(i + 1) * len(seg) // k]
                    for i in range(k))
    return runs


def _scan_here(physical: PhysicalPlan,
               run: list[ScanTask]) -> list[ChunkPartial]:
    """A ``threads`` task: one run's chunks, scanned in order."""
    return [physical.execute_chunk(task.segment.table, task.chunk)
            for task in run]


def _require_source_path(table: CompressedActivityTable) -> str:
    path = getattr(table, "source_path", None)
    if not path:
        raise ExecutionError(
            "the 'processes' backend needs a table loaded from a "
            ".cohana file (workers open it by path); save the table "
            "and load it, or use backend='threads'")
    return path


# ---------------------------------------------------------------------------
# Row building (shared by all kernels)
# ---------------------------------------------------------------------------


def build_rows(table: CompressedActivityTable, state: MergeState,
               decoded_labels: bool) -> list[tuple]:
    """Fold the merged buckets and finalize them into sorted rows."""
    query = state.query
    folded = state.partial()
    labels = folded.labels
    if not decoded_labels:
        labels = decode_labels(table, query, labels)
    # Rows sort by the labels' values as strings, then by age. Distinct
    # labels have distinct keys, so ranking the labels once orders
    # every bucket.
    keys = [tuple(str(v) for v in label) for label in labels]
    rank = np.empty(len(labels), dtype=np.int64)
    rank[np.array(sorted(range(len(labels)), key=keys.__getitem__),
                  dtype=np.int64)] = np.arange(len(labels))
    order = np.lexsort((folded.bucket_age, rank[folded.bucket_label]))
    bucket_label = folded.bucket_label[order]
    columns = [np.array([label[i] for label in labels],
                        dtype=object)[bucket_label].tolist()
               for i in range(len(query.cohort_by))]
    columns.append(folded.sizes[bucket_label].tolist())
    columns.append(folded.bucket_age[order].tolist())
    for agg, states in zip(query.aggregates, folded.states):
        if agg.func == "AVG":
            sums, counts = states
            columns.append([finalize_partial("AVG", pair) for pair in zip(
                sums[order].tolist(), counts[order].tolist())])
        else:
            columns.append(states[order].tolist())
    return list(zip(*columns))


def decode_labels(table: CompressedActivityTable, query: CohortQuery,
                  labels: list[tuple]) -> list[tuple]:
    """Map id-space cohort labels of ``table`` to their output values."""
    schema = query.effective_schema(table.schema)
    specs = [schema.column(name) for name in query.cohort_by]

    def decode(spec, value):
        if spec.role is ColumnRole.TIME:
            return format_timestamp(int(value))
        if spec.ltype is LogicalType.STRING:
            return table.value_of(spec.name, int(value))
        return int(value)
    return [tuple(decode(spec, value) for spec, value in zip(specs, label))
            for label in labels]
