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
  against its own dictionaries): it makes every pruning decision exactly
  once, dispatches the surviving ``(segment, chunk)`` tasks through a
  pluggable backend, and streams the resulting :class:`ChunkPartial`\\ s
  through the one merge loop (:meth:`MergeState.absorb`);
* :class:`ChunkKernel` is the pluggable per-chunk scan: a pure function
  ``(table, chunk, plan) -> ChunkPartial``. The ``vectorized`` and
  ``iterator`` executors register themselves here and contain *only*
  per-chunk logic. Kernels share no mutable state and only read the
  immutable compressed table, so they run concurrently over chunks
  without locks; the merge stays single-threaded in the scheduler;
* :class:`ExecutionConfig` selects the backend (``serial``, ``threads``
  or ``processes`` via :mod:`concurrent.futures`), the worker count, and
  the ``scan_mode`` (``decoded`` | ``compressed`` | ``auto``).

The ``processes`` backend sidesteps the GIL entirely: the parent never
ships chunk data to workers — each task is just ``(path, content
digest, kernel name, plan, chunk index)`` for the persistent pool of
:mod:`repro.cohana.workers`, and only picklable partials come back. It
therefore requires a table with a ``source_path`` (loaded from disk,
not built in memory). One deliberate cost remains: the parent's
pruning pass touches every chunk's metadata, which on a lazy table
parses each chunk once in the parent.

Pruning is metadata-exact, not heuristic: every skip is proven from
persisted storage metadata (:func:`prune_reason` lists the evidence;
zone maps are :mod:`repro.storage.zonemap`), so results are identical
with pruning on or off.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

from repro.errors import CatalogError, ExecutionError
from repro.cohana import workers
from repro.cohana.operators import PhysicalPlan, lower_plan
from repro.cohana.planner import SCAN_MODES, CohortPlan, plan_query
from repro.cohort.query import CohortQuery
from repro.cohort.result import CohortResult
from repro.schema import ColumnRole, LogicalType, format_timestamp
from repro.storage.chunk import Chunk
from repro.storage.dictionary import DictEncodedColumn
from repro.storage.reader import CompressedActivityTable

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
    ``shards_total`` / ``shards_scanned`` describe sharded tables
    (``shards_scanned`` counts shards with at least one surviving scan
    task); both stay zero for single-file tables.

    The ``cache_*`` counters are filled in by the query service
    (:mod:`repro.service`) when a query goes through its result cache;
    direct engine executions leave them at zero. ``cache_disposition``
    records how the service answered this call: ``'hit'`` (served from
    cache), ``'miss'`` (executed and cached), ``'bypass'`` (caching
    disabled for the call), ``'invalidated'`` (a cached result
    existed but its table version token no longer matches — executed
    and re-cached) or ``'refresh'`` (a materialized view was served
    after incrementally scanning newly appended shards; see
    :mod:`repro.views`). On a hit the scan counters describe the
    *original* cold execution that produced the cached result.

    The serving-tier fields are stamped by the HTTP frontend
    (:mod:`repro.service.http`) into the stats it puts on the wire:
    ``admission_wait_seconds`` is how long *this* request waited for
    an execution slot, and the ``http_*`` fields snapshot the server's
    aggregate admitted/shed/timeout/drained counters at response time
    (also served by ``GET /stats``). Off-wire executions leave all of
    them at zero.
    """

    chunks_total: int = 0
    chunks_scanned: int = 0
    chunks_pruned: int = 0
    chunks_pruned_zone: int = 0
    shards_total: int = 0
    shards_scanned: int = 0
    rows_scanned: int = 0
    users_seen: int = 0
    users_qualified: int = 0
    tuples_aggregated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    cache_disposition: str | None = None
    admission_wait_seconds: float = 0.0
    http_admitted: int = 0
    http_shed: int = 0
    http_timeouts: int = 0
    http_drained: int = 0


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
        jobs: how many of this query's scan tasks are in flight on a
            parallel backend (ignored by ``serial``). The ``processes``
            pool holds as many workers as the largest ``jobs`` any
            query has needed.
        collect_stats: accumulate the per-chunk row/user counters into
            :class:`ExecStats`; chunk-level counters are always kept.
        scan_mode: ``'decoded'`` (legacy path: materialize codes, then
            filter; pruning limited to the action dictionary and birth
            time range), ``'compressed'`` (coded-domain predicate
            evaluation plus zone-map/metadata pruning), or ``'auto'``
            (compressed wherever chunks carry zone maps). Results are
            identical across modes; only the work done differs.
    """

    backend: str = "serial"
    jobs: int = 1
    collect_stats: bool = True
    scan_mode: str = "auto"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ExecutionError(
                f"unknown backend {self.backend!r}; have {BACKENDS}")
        if self.jobs < 1:
            raise ExecutionError(f"jobs must be >= 1, got {self.jobs}")
        if self.scan_mode not in SCAN_MODES:
            raise ExecutionError(
                f"unknown scan_mode {self.scan_mode!r}; have {SCAN_MODES}")

    @classmethod
    def resolve(cls, jobs: int = 1, backend: str | None = None,
                collect_stats: bool = True,
                scan_mode: str = "auto",
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
        return cls(backend=backend, jobs=jobs, collect_stats=collect_stats,
                   scan_mode=scan_mode)

    def describe(self) -> str:
        """Compact one-line rendering for EXPLAIN output."""
        return (f"Execution(backend={self.backend}, jobs={self.jobs}, "
                f"scan_mode={self.scan_mode})")


@dataclass
class ChunkPartial:
    """One chunk's contribution: partial aggregates plus scan counters.

    ``buckets`` maps ``(label, age)`` to one partial state per aggregate
    in the query's SELECT list; ``cohort_sizes`` maps labels to qualified
    user counts. Partial states follow the protocol of
    :func:`merge_partial` / :func:`finalize_partial` regardless of which
    kernel produced them, so the scheduler can merge partials from any
    kernel family the same way.
    """

    n_aggregates: int
    cohort_sizes: dict = field(default_factory=dict)
    buckets: dict = field(default_factory=dict)
    rows_scanned: int = 0
    users_seen: int = 0
    users_qualified: int = 0
    tuples_aggregated: int = 0

    def add_cohort_size(self, label: tuple, count: int) -> None:
        """Count ``count`` qualified users born into cohort ``label``."""
        self.cohort_sizes[label] = self.cohort_sizes.get(label, 0) + count

    def add_partial(self, key: tuple, agg_index: int, func: str,
                    partial) -> None:
        """Fold one partial state into the ``(label, age)`` bucket's
        slot for the ``agg_index``-th aggregate of the SELECT list."""
        slots = self.buckets.setdefault(key, [None] * self.n_aggregates)
        slots[agg_index] = merge_partial(func, slots[agg_index], partial)


def merge_partial(func: str, state, partial):
    """Fold one partial aggregate state into another (both canonical)."""
    if state is None:
        return partial
    if func in ("SUM", "COUNT", "USERCOUNT"):
        return state + partial
    if func == "AVG":
        return (state[0] + partial[0], state[1] + partial[1])
    if func == "MIN":
        return min(state, partial)
    if func == "MAX":
        return max(state, partial)
    raise ExecutionError(f"unknown aggregate {func!r}")


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
            stay in global-dictionary id space until row building.
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


def resolve_scan_mode(plan_mode: str, chunk: Chunk) -> str:
    """The effective scan mode for one chunk: ``auto`` picks
    ``compressed`` when the chunk carries persisted zone maps and
    ``decoded`` otherwise (version-1 files)."""
    if plan_mode == "auto":
        return "compressed" if chunk.has_zone_maps else "decoded"
    return plan_mode


# ---------------------------------------------------------------------------
# Streaming merge
# ---------------------------------------------------------------------------


class MergeState(ChunkPartial):
    """Accumulates ChunkPartials into table-wide totals, streaming."""

    def __init__(self, query: CohortQuery):
        super().__init__(n_aggregates=len(query.aggregates))
        self.query = query

    def absorb(self, partial: ChunkPartial, stats: ExecStats,
               collect_stats: bool = True,
               relabel: Callable[[tuple], tuple] | None = None) -> None:
        """Merge one chunk's partial in (order-independent: every merge
        operator is commutative and associative, so threaded completion
        order does not change the result).

        ``relabel`` (:meth:`Segment.value_label`) moves the partial's
        cohort labels into value space first — the only space in which
        partials of different segments are comparable. Within a segment
        distinct ids decode to distinct values, so nothing is lost.
        """
        cohort_sizes = partial.cohort_sizes.items()
        buckets = partial.buckets.items()
        if relabel is not None:
            cohort_sizes = [(relabel(label), count)
                            for label, count in cohort_sizes]
            buckets = [((relabel(label), age), slots)
                       for (label, age), slots in buckets]
        for label, count in cohort_sizes:
            self.add_cohort_size(label, count)
        n_aggs = self.n_aggregates
        funcs = [agg.func for agg in self.query.aggregates]
        for key, slots in buckets:
            mine = self.buckets.setdefault(key, [None] * n_aggs)
            for i in range(n_aggs):
                if slots[i] is not None:
                    mine[i] = merge_partial(funcs[i], mine[i], slots[i])
        _count_rows(self, partial)
        if collect_stats:
            _count_rows(stats, partial)


def _count_rows(into: "ExecStats | ChunkPartial",
                partial: ChunkPartial) -> None:
    """Add one partial's row counters (both targets carry them)."""
    into.rows_scanned += partial.rows_scanned
    into.users_seen += partial.users_seen
    into.users_qualified += partial.users_qualified
    into.tuples_aggregated += partial.tuples_aggregated


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


#: Per-shard plan cache. Shards have independent global dictionaries,
#: so a sharded query replans each shard; the plan depends only on the
#: bound query, the shard's *content* and the planning knobs — keying
#: by the shard's content digest (not the table object) means plans of
#: untouched shards stay warm across appends and table reloads, while
#: a rewritten shard can never reuse a stale plan.
_SHARD_PLAN_CACHE: OrderedDict[tuple, CohortPlan] = OrderedDict()
_SHARD_PLAN_CACHE_BOUND = 512
_SHARD_PLAN_LOCK = threading.Lock()
#: Cumulative cache counters (observable by tests and benchmarks).
SHARD_PLAN_CACHE_STATS = {"hits": 0, "misses": 0}


def clear_shard_plan_cache() -> None:
    """Drop every cached per-shard plan (counters keep accumulating)."""
    with _SHARD_PLAN_LOCK:
        _SHARD_PLAN_CACHE.clear()


def shard_plan(shard: CompressedActivityTable, query: CohortQuery,
               pushdown: bool, prune: bool, scan_mode: str) -> CohortPlan:
    """Plan ``query`` against one shard, through the per-shard cache."""
    digest = getattr(shard, "content_digest", None)
    key = None
    if digest:
        key = (digest, repr(query), pushdown, prune, scan_mode)
        with _SHARD_PLAN_LOCK:
            plan = _SHARD_PLAN_CACHE.get(key)
            if plan is not None:
                SHARD_PLAN_CACHE_STATS["hits"] += 1
                _SHARD_PLAN_CACHE.move_to_end(key)
                return plan
            SHARD_PLAN_CACHE_STATS["misses"] += 1
    plan = plan_query(query, shard, pushdown=pushdown, prune=prune,
                      scan_mode=scan_mode)
    if key is not None:
        with _SHARD_PLAN_LOCK:
            _SHARD_PLAN_CACHE[key] = plan
            while len(_SHARD_PLAN_CACHE) > _SHARD_PLAN_CACHE_BOUND:
                _SHARD_PLAN_CACHE.popitem(last=False)
    return plan


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
    """One segment of a table, planned for one query.

    No user spans chunks (writer invariant) or shards
    (:func:`~repro.storage.sharded.append_shard` invariant), so partials
    of any chunk of any segment merge exactly — including USERCOUNT. But
    global ids mean something only inside their segment: the plan, its
    lowered operator tree and the label memo live here.
    """

    table: CompressedActivityTable
    plan: CohortPlan
    kernel: ChunkKernel
    _labels: dict[tuple, tuple] = field(default_factory=dict)

    @cached_property
    def physical(self) -> PhysicalPlan:
        """Lowered on first use, so never for a segment without tasks."""
        return lower_plan(self.plan, self.kernel)

    def value_label(self, label: tuple) -> tuple:
        """This segment's id-space cohort ``label`` in value space,
        decoded once for the length of the scan."""
        hit = self._labels.get(label)
        if hit is None:
            query = self.plan.query
            hit = self._labels[label] = decode_label(
                self.table, query.effective_schema(self.table.schema),
                query, label)
        return hit


@dataclass(frozen=True)
class ScanTask:
    """One unit of scan work: a chunk that survived pruning."""

    chunk: Chunk
    index: int  # of the chunk within ``segment.table``
    segment: Segment


def shard_value_partial(shard: CompressedActivityTable, query: CohortQuery,
                        kernel: "ChunkKernel | str" = "vectorized",
                        config: ExecutionConfig | None = None,
                        pushdown: bool = True, prune: bool = True,
                        stats: ExecStats | None = None) -> ChunkPartial:
    """Scan one segment into a single *value-space* :class:`ChunkPartial`
    — the unit of work the materialized-view store caches, and nothing
    but :meth:`ChunkScheduler.merge` over a one-segment table.

    Labels are decoded through the segment's own dictionaries, so
    partials of different shards, or of one shard cached at different
    times, merge exactly. ``stats`` accumulates this scan's counters (row
    counters only under ``config.collect_stats``, as on every path); the
    returned partial always carries them.
    """
    config = config or ExecutionConfig()
    plan = shard_plan(shard, query, pushdown, prune, config.scan_mode)
    return ChunkScheduler(shard, plan, kernel, config).merge(
        stats if stats is not None else ExecStats(), value_space=True)


class ChunkScheduler:
    """Runs a plan over a table's segments: prune once, drive the
    physical operator tree per chunk, stream-merge partials.

    A table that is its own segment runs the given plan; a shard is
    planned through :func:`shard_plan`. Plans are lowered here for
    ``serial`` and ``threads``; ``processes`` ships the picklable plan
    and re-lowers in each worker. The scheduler owns no process pool: it
    keeps at most ``jobs`` of its tasks in flight on the shared one, and
    a failing task cancels only this query's queued tasks.

    A non-``auto`` ``config.scan_mode`` overrides the plan's, so the
    same :class:`~repro.cohana.planner.CohortPlan` can be executed in
    either mode without replanning.
    """

    def __init__(self, table: CompressedActivityTable, plan: CohortPlan,
                 kernel: ChunkKernel | str,
                 config: ExecutionConfig | None = None):
        self.table = table
        self.config = config or ExecutionConfig()
        if (self.config.scan_mode != "auto"
                and plan.scan_mode != self.config.scan_mode):
            plan = replace(plan, scan_mode=self.config.scan_mode)
        self.plan = plan
        self.kernel = (get_kernel(kernel) if isinstance(kernel, str)
                       else kernel)
        self.segments = [
            Segment(part, plan if part is table else shard_plan(
                part, plan.query, plan.pushdown, plan.prune,
                plan.scan_mode), self.kernel)
            for part in table_segments(table)]

    @property
    def physical(self) -> PhysicalPlan:
        """The lowered plan of a one-segment table, for callers that
        drive its chunks themselves."""
        (segment,) = self.segments
        return segment.physical

    def tasks(self, stats: ExecStats | None = None) -> list[ScanTask]:
        """The scan tasks left after pruning (the single place pruning
        decisions are made and counted)."""
        stats = stats if stats is not None else ExecStats()
        tasks: list[ScanTask] = []
        for segment in self.segments:
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

    def merge(self, stats: ExecStats, value_space: bool) -> MergeState:
        """Prune, scan and fold every segment into one
        :class:`MergeState`, counting into ``stats``. ``value_space``
        relabels id-space partials (decoding kernels need none)."""
        stats.chunks_total += self.table.n_chunks
        state = MergeState(self.plan.query)
        relabel = value_space and not self.kernel.decoded_labels
        for segment, partial in self._scan(self.tasks(stats)):
            state.absorb(partial, stats, self.config.collect_stats,
                         segment.value_label if relabel else None)
        return state

    def run(self) -> tuple[CohortResult, ExecStats]:
        """Execute the plan and build the result relation."""
        query = self.plan.query
        # A table that is its own segment has no shards to count.
        stats = ExecStats(shards_total=sum(s.table is not self.table
                                           for s in self.segments))
        # Labels must be in value space before partials of different
        # segments meet; with one segment they stay in id space until
        # row building decodes each label once, through that segment.
        value_space = len(self.segments) > 1
        state = self.merge(stats, value_space)
        rows = build_rows(self.segments[0].table, state,
                          value_space or self.kernel.decoded_labels)
        return (CohortResult(columns=query.output_columns, rows=rows,
                             n_cohort_columns=len(query.cohort_by)),
                stats)

    def _scan(self, tasks: list[ScanTask]):
        """Yield ``(segment, ChunkPartial)`` as scan tasks complete, per
        the backend; one pool serves every segment's tasks.

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
        n_workers = min(self.config.jobs, len(tasks))
        if self.config.backend == "processes":
            calls = [(task.segment,
                      (_require_source_path(task.segment.table),
                       task.segment.table.content_digest,
                       self.kernel.name, task.segment.plan, task.index))
                     for task in tasks]
            yield from workers.scan_in_workers(calls, n_workers)
            return
        pool = ThreadPoolExecutor(max_workers=n_workers)
        try:
            # ``physical`` is read here, in the submitting thread, so
            # each segment is lowered once.
            futures = {pool.submit(task.segment.physical.execute_chunk,
                                   task.segment.table, task.chunk):
                       task.segment for task in tasks}
            for future in as_completed(futures):
                yield futures[future], future.result()
        finally:
            # Also on failure, or when the consumer abandons the scan:
            # cancel every queued task and stop the pool before the
            # exception propagates, so nothing scans for a dead query.
            pool.shutdown(wait=True, cancel_futures=True)


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
    """Finalize merged buckets into sorted result rows."""
    query = state.query
    schema = query.effective_schema(table.schema)
    if decoded_labels:
        decoded = {label: label for label in state.cohort_sizes}
    else:
        decoded = {label: decode_label(table, schema, query, label)
                   for label in state.cohort_sizes}

    def sort_key(item):
        label, age = item
        return (tuple(str(v) for v in decoded[label]), age)

    rows = []
    for (label, age) in sorted(state.buckets, key=sort_key):
        slots = state.buckets[(label, age)]
        finals = [finalize_partial(agg.func, slot)
                  for agg, slot in zip(query.aggregates, slots)]
        rows.append((*decoded[label], state.cohort_sizes[label], age,
                     *finals))
    return rows


def decode_label(table: CompressedActivityTable, schema,
                 query: CohortQuery, label: tuple) -> tuple:
    """Map an id-space cohort label to its output values."""
    out = []
    for name, value in zip(query.cohort_by, label):
        spec = schema.column(name)
        if spec.role is ColumnRole.TIME:
            out.append(format_timestamp(int(value)))
        elif spec.ltype is LogicalType.STRING:
            out.append(table.value_of(name, int(value)))
        else:
            out.append(int(value))
    return tuple(out)
