"""The chunk-pipeline execution core: scheduling, kernels, merging.

COHANA's storage invariant — all tuples of a user live in exactly one
chunk (Section 4.1) — makes chunks *independent* units of work: per-chunk
partial aggregates merge exactly, including distinct-user counts
(Section 4.5). This module exploits that invariant once, centrally,
instead of each executor hand-rolling its own chunk loop:

* :class:`ChunkScheduler` turns a :class:`~repro.cohana.planner.CohortPlan`
  into per-chunk scan tasks, makes every pruning decision exactly once,
  dispatches the tasks through a pluggable backend, and streams the
  resulting :class:`ChunkPartial`\\ s through the merge protocol;
* :class:`ChunkKernel` is the pluggable per-chunk scan: a pure function
  ``(table, chunk, plan) -> ChunkPartial``. The ``vectorized`` and
  ``iterator`` executors register themselves here and contain *only*
  per-chunk logic;
* :class:`ExecutionConfig` selects the backend (``serial``, ``threads``
  or ``processes`` via :mod:`concurrent.futures`), the worker count, and
  the ``scan_mode`` (``decoded`` | ``compressed`` | ``auto``).

The ``processes`` backend sidesteps the GIL entirely: the parent never
ships chunk data to workers — each task is just ``(path, content
digest, kernel name, plan, chunk index)``, the worker opens the
``.cohana`` file by path (memory-mapped and lazy for version-3+ files,
so it deserializes only the chunks it actually scans) and returns a
:class:`ChunkPartial`. Only picklable partial aggregates cross the
process boundary, and the streaming merge stays single-threaded in the
parent, exactly as in the other backends. It therefore requires a table
with a ``source_path`` (loaded from disk, not built in memory). The
workers are one persistent, process-wide pool
(:mod:`repro.cohana.workers`): they keep the tables they opened and
the chunks they parsed across queries, so a query pays for dispatch,
not for forking and re-loading. One deliberate cost remains: the
parent's pruning pass touches every chunk's metadata, which on a lazy
table parses each chunk once in the parent.

Pruning is metadata-exact, not heuristic: every skip is proven from
persisted storage metadata — the action chunk dictionary, the birth
condition's coded-domain bounds against persisted per-chunk zone maps
(:mod:`repro.storage.zonemap`), and chunk-dictionary membership for
equality/IN constraints — so pruned chunks can contain no qualifying
birth tuple and results are identical with pruning on or off.

Because kernels are pure (they share no mutable state and only read the
immutable compressed table), running them concurrently over chunks is
safe; the merge itself stays single-threaded in the scheduler, so no
locking is needed anywhere.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import CatalogError, ExecutionError
from repro.cohana import workers
from repro.cohana.operators import lower_plan
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
    ``chunks_pruned + chunks_scanned == chunks_total`` always holds.
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


def chunk_prunable(table: CompressedActivityTable, chunk: Chunk,
                   plan: CohortPlan) -> bool:
    """Can ``chunk`` be skipped without changing the result?

    Every check is exact, proven from storage metadata alone (no segment
    is decoded): a pruned chunk cannot host a qualifying birth tuple,
    and since a user's tuples never span chunks, it cannot contribute
    anything to the result. See :func:`prune_reason` for which evidence
    applies in which ``scan_mode``.
    """
    return prune_reason(table, chunk, plan) is not None


def prune_reason(table: CompressedActivityTable, chunk: Chunk,
                 plan: CohortPlan) -> str | None:
    """Why ``chunk`` is prunable — or None when it must be scanned.

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


class MergeState:
    """Accumulates ChunkPartials into table-wide totals, streaming."""

    def __init__(self, query: CohortQuery):
        self.query = query
        self.cohort_sizes: dict[tuple, int] = {}
        self.buckets: dict[tuple, list] = {}

    def absorb(self, partial: ChunkPartial, stats: ExecStats,
               collect_stats: bool = True) -> None:
        """Merge one chunk's partial in (order-independent: every merge
        operator is commutative and associative, so threaded completion
        order does not change the result)."""
        for label, count in partial.cohort_sizes.items():
            self.cohort_sizes[label] = (self.cohort_sizes.get(label, 0)
                                        + count)
        n_aggs = len(self.query.aggregates)
        funcs = [agg.func for agg in self.query.aggregates]
        for key, slots in partial.buckets.items():
            mine = self.buckets.setdefault(key, [None] * n_aggs)
            for i in range(n_aggs):
                if slots[i] is not None:
                    mine[i] = merge_partial(funcs[i], mine[i], slots[i])
        if collect_stats:
            stats.rows_scanned += partial.rows_scanned
            stats.users_seen += partial.users_seen
            stats.users_qualified += partial.users_qualified
            stats.tuples_aggregated += partial.tuples_aggregated


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanTask:
    """One unit of scan work: a chunk that survived pruning."""

    chunk: Chunk
    index: int


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


def _decode_partial(shard: CompressedActivityTable, query: CohortQuery,
                    partial: ChunkPartial) -> ChunkPartial:
    """Translate a partial's cohort labels from the shard's global-id
    space into value space.

    Shards carry independent dictionaries, so the same global id means
    different values in different shards; decoding before the
    cross-shard merge is what makes the merge meaningful. Within one
    shard distinct ids decode to distinct values, so no information is
    lost.
    """
    schema = query.effective_schema(shard.schema)
    decoded: dict[tuple, tuple] = {}

    def value_label(label: tuple) -> tuple:
        hit = decoded.get(label)
        if hit is None:
            hit = decoded[label] = decode_label(shard, schema, query,
                                                label)
        return hit

    out = ChunkPartial(
        n_aggregates=partial.n_aggregates,
        rows_scanned=partial.rows_scanned,
        users_seen=partial.users_seen,
        users_qualified=partial.users_qualified,
        tuples_aggregated=partial.tuples_aggregated,
    )
    for label, count in partial.cohort_sizes.items():
        out.add_cohort_size(value_label(label), count)
    funcs = [agg.func for agg in query.aggregates]
    for (label, age), slots in partial.buckets.items():
        mine = out.buckets.setdefault((value_label(label), age),
                                      [None] * partial.n_aggregates)
        for i, slot in enumerate(slots):
            if slot is not None:
                mine[i] = merge_partial(funcs[i], mine[i], slot)
    return out


def fold_partial(into: ChunkPartial, partial: ChunkPartial,
                 funcs: list[str]) -> None:
    """Merge one partial into another, counters included.

    Both partials must carry their labels in the same space (both
    id-space from the same table, or both value space); ``funcs`` is the
    per-slot aggregate function list from the query's SELECT order.
    """
    into.rows_scanned += partial.rows_scanned
    into.users_seen += partial.users_seen
    into.users_qualified += partial.users_qualified
    into.tuples_aggregated += partial.tuples_aggregated
    for label, count in partial.cohort_sizes.items():
        into.add_cohort_size(label, count)
    for key, slots in partial.buckets.items():
        mine = into.buckets.setdefault(key, [None] * into.n_aggregates)
        for i, slot in enumerate(slots):
            if slot is not None:
                mine[i] = merge_partial(funcs[i], mine[i], slot)


def shard_value_partial(shard: CompressedActivityTable, query: CohortQuery,
                        kernel: "ChunkKernel | str" = "vectorized",
                        config: ExecutionConfig | None = None,
                        pushdown: bool = True, prune: bool = True,
                        stats: ExecStats | None = None) -> ChunkPartial:
    """Scan one shard into a single *value-space* :class:`ChunkPartial`.

    This is the unit of work the materialized-view store caches: because
    no user spans a chunk (writer invariant) and no user spans shards
    (:func:`~repro.storage.sharded.append_shard` invariant), the returned
    partial merges exactly with any other shard's partial — including
    USERCOUNT. Labels are decoded through the owning shard's dictionaries
    (shards have independent id spaces), so partials from different
    shards, or from the same shard cached at different times, are
    directly comparable.

    ``stats``, when given, accumulates the chunk/row counters of this
    scan (``chunks_total``/``chunks_pruned``/``chunks_scanned`` plus the
    per-row counters), mirroring what a full sharded run would have
    recorded for this shard.
    """
    kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
    config = config or ExecutionConfig()
    stats = stats if stats is not None else ExecStats()
    merged = ChunkPartial(n_aggregates=len(query.aggregates))
    stats.chunks_total += shard.n_chunks
    plan = shard_plan(shard, query, pushdown, prune, config.scan_mode)
    if plan.birth_action_gid is None and prune:
        # Shard-level action miss: nothing to scan (see _run_sharded).
        stats.chunks_pruned += shard.n_chunks
        return merged
    scheduler = ChunkScheduler(shard, plan, kernel, config)
    funcs = [agg.func for agg in query.aggregates]
    for partial in scheduler._scan(scheduler.tasks(stats)):
        if not kernel.decoded_labels:
            partial = _decode_partial(shard, query, partial)
        fold_partial(merged, partial, funcs)
    stats.rows_scanned += merged.rows_scanned
    stats.users_seen += merged.users_seen
    stats.users_qualified += merged.users_qualified
    stats.tuples_aggregated += merged.tuples_aggregated
    return merged


class ChunkScheduler:
    """Runs a plan: prune once, drive the physical operator tree per
    chunk, stream-merge partials.

    The scheduler lowers the plan's logical chain once
    (:func:`~repro.cohana.operators.lower_plan`) and dispatches
    ``physical.execute_chunk`` as the per-chunk unit of work on every
    backend; the ``processes`` backend ships only the picklable plan to
    the persistent pool of :mod:`repro.cohana.workers` and re-lowers
    inside each worker. The scheduler owns no pool: it keeps at most
    ``jobs`` of its tasks in flight on the shared one, and a failing
    task cancels only this query's queued tasks.

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
        self.physical = lower_plan(self.plan, self.kernel)

    def tasks(self, stats: ExecStats | None = None) -> list[ScanTask]:
        """The scan tasks left after pruning (the single place pruning
        decisions are made and counted)."""
        stats = stats if stats is not None else ExecStats()
        tasks: list[ScanTask] = []
        if self.plan.birth_action_gid is None:
            return tasks
        for i, chunk in enumerate(self.table.chunks):
            if self.plan.prune:
                reason = prune_reason(self.table, chunk, self.plan)
                if reason is not None:
                    stats.chunks_pruned += 1
                    if reason == "zonemap":
                        stats.chunks_pruned_zone += 1
                    continue
            stats.chunks_scanned += 1
            tasks.append(ScanTask(chunk=chunk, index=i))
        return tasks

    def run(self) -> tuple[CohortResult, ExecStats]:
        """Execute the plan and build the result relation."""
        if getattr(self.table, "is_sharded", False):
            return self._run_sharded()
        query = self.plan.query
        stats = ExecStats(chunks_total=self.table.n_chunks)
        state = MergeState(query)
        tasks = self.tasks(stats)
        for partial in self._scan(tasks):
            state.absorb(partial, stats, self.config.collect_stats)
        rows = build_rows(self.table, state, self.kernel.decoded_labels)
        return (CohortResult(columns=query.output_columns, rows=rows,
                             n_cohort_columns=len(query.cohort_by)),
                stats)

    # -- sharded execution ----------------------------------------------------

    def _run_sharded(self) -> tuple[CohortResult, ExecStats]:
        """Execute over a sharded table: plan each shard against its
        own dictionaries, prune per shard, scan across all shards on
        the configured backend, and merge in *value* space.

        Shards carry independent global dictionaries (the append path
        never re-encodes old shards), so gid-space partials from
        different shards are not comparable — each shard's partials
        have their cohort labels decoded through the owning shard
        before they reach the shared :class:`MergeState`. Row building
        then runs with ``decoded_labels=True`` regardless of kernel.
        """
        query = self.plan.query
        stats = ExecStats(chunks_total=self.table.n_chunks,
                          shards_total=len(self.table.shards))
        state = MergeState(query)
        work: list[tuple] = []  # (shard, shard plan, surviving tasks)
        for shard in self.table.shards:
            plan = shard_plan(shard, query, self.plan.pushdown,
                              self.plan.prune, self.plan.scan_mode)
            if plan.birth_action_gid is None and self.plan.prune:
                # The birth action is absent from this shard's global
                # dictionary — the shard-level form of the action
                # chunk-dictionary miss. Count its chunks as pruned so
                # chunks_pruned + chunks_scanned == chunks_total keeps
                # holding across shards.
                stats.chunks_pruned += shard.n_chunks
                continue
            tasks = ChunkScheduler(shard, plan, self.kernel,
                                   self.config).tasks(stats)
            if tasks:
                stats.shards_scanned += 1
                work.append((shard, plan, tasks))
        for shard, partial in self._scan_shards(work):
            if not self.kernel.decoded_labels:
                partial = _decode_partial(shard, query, partial)
            state.absorb(partial, stats, self.config.collect_stats)
        rows = build_rows(self.table, state, decoded_labels=True)
        return (CohortResult(columns=query.output_columns, rows=rows,
                             n_cohort_columns=len(query.cohort_by)),
                stats)

    def _scan_shards(self, work):
        """Yield ``(shard, ChunkPartial)`` pairs across all shards.

        Same backend semantics as :meth:`_scan`, but the fan-out unit
        spans shards: one pool serves every shard's tasks, and a
        ``processes`` worker opens only the shard file that owns its
        chunk (each shard is an ordinary ``.cohana`` file, so the
        worker-side table cache applies per shard).
        """
        if not work:
            return
        if self.config.backend == "serial":
            for shard, plan, tasks in work:
                physical = lower_plan(plan, self.kernel)
                for task in tasks:
                    yield shard, physical.execute_chunk(shard, task.chunk)
            return
        n_tasks = sum(len(tasks) for _, _, tasks in work)
        n_workers = min(self.config.jobs, n_tasks)
        if self.config.backend == "processes":
            calls = [
                (shard, (_require_source_path(shard), shard.content_digest,
                         self.kernel.name, plan, task.index))
                for shard, plan, tasks in work for task in tasks]
            yield from workers.scan_in_workers(calls, n_workers)
            return
        owners: dict = {}
        pool = ThreadPoolExecutor(max_workers=n_workers)
        for shard, plan, tasks in work:
            physical = lower_plan(plan, self.kernel)
            for task in tasks:
                future = pool.submit(physical.execute_chunk, shard,
                                     task.chunk)
                owners[future] = shard
        yield from _drain_pool_keyed(pool, owners)

    def _scan(self, tasks: list[ScanTask]):
        """Yield ChunkPartials as scan tasks complete, per the backend.

        An explicitly requested parallel backend is honoured even at
        ``jobs=1`` or with a single surviving task, so backend-specific
        code paths are exercised whenever the caller asked for them;
        only ``backend='serial'`` (or an empty task list) runs inline.
        """
        if not tasks:
            return
        execute_chunk = self.physical.execute_chunk
        if self.config.backend == "serial":
            for task in tasks:
                yield execute_chunk(self.table, task.chunk)
            return
        n_workers = min(self.config.jobs, len(tasks))
        if self.config.backend == "processes":
            path = _require_source_path(self.table)
            calls = [(None, (path, self.table.content_digest,
                             self.kernel.name, self.plan, task.index))
                     for task in tasks]
            for _, partial in workers.scan_in_workers(calls, n_workers):
                yield partial
            return
        pool = ThreadPoolExecutor(max_workers=n_workers)
        futures = [pool.submit(execute_chunk, self.table, task.chunk)
                   for task in tasks]
        yield from _drain_pool(pool, futures)


def _require_source_path(table: CompressedActivityTable) -> str:
    path = getattr(table, "source_path", None)
    if not path:
        raise ExecutionError(
            "the 'processes' backend needs a table loaded from a "
            ".cohana file (workers open it by path); save the table "
            "and load it, or use backend='threads'")
    return path


def _drain_pool(pool, futures):
    """Yield results as futures complete; on any failure (or the
    consumer abandoning the scan) cancel every queued task and shut the
    pool down deterministically before the exception propagates, so no
    orphaned worker keeps scanning after the query has already failed."""
    try:
        for future in as_completed(futures):
            yield future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _drain_pool_keyed(pool, futures: dict):
    """Like :func:`_drain_pool`, for futures mapped to an owner key
    (the shard that submitted them): yields ``(owner, result)``."""
    try:
        for future in as_completed(futures):
            yield futures[future], future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def execute(table: CompressedActivityTable, plan: CohortPlan,
            kernel: ChunkKernel | str = "vectorized",
            config: ExecutionConfig | None = None,
            ) -> tuple[CohortResult, ExecStats]:
    """Convenience wrapper: schedule + run in one call."""
    return ChunkScheduler(table, plan, kernel, config).run()


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
