"""The caching query service: fingerprint, admit, execute, remember.

:class:`QueryService` sits between callers and
:class:`~repro.cohana.engine.CohanaEngine` and adds the serving-layer
behaviours the engine itself deliberately lacks:

* a **result cache** keyed by :func:`~repro.service.fingerprint.
  result_fingerprint` (bound query + table version token) — repeated
  queries over unchanged tables skip the scan entirely (a miss plans
  directly: the table moved or the query is new, so no plan keyed the
  same way could be warm);
* **single-flight admission** — concurrent identical queries execute
  once; followers block on the leader's in-flight computation and are
  served its result (counted as hits: nothing was re-scanned);
* a **batch API** running distinct queries concurrently on an
  admission thread pool, while each execution still uses the chunk
  pipeline's own serial/threads/processes scan backends.

Every call reports its **cache disposition** through
:class:`~repro.cohana.pipeline.ExecStats`:

===============  ====================================================
``hit``          served from cache (or a concurrent leader's run)
``miss``         executed cold and cached; for a view, re-merged from
                 warm per-shard partials (no chunk scanned)
``bypass``       caching disabled for this call — executed, not cached
``invalidated``  a cached result existed but its table version token
                 is stale — executed cold and re-cached
``refresh``      a materialized view was served after incrementally
                 scanning newly appended shards (:meth:`serve_view`)
===============  ====================================================

Materialized views (:meth:`QueryService.serve_view`) share the result
cache with direct queries: a view's result is identical to running its
bound query, so the fingerprint — and therefore the cached bytes — are
the same. On a result-cache miss the view is re-merged from its cached
per-shard partials instead of re-scanned; only shards appended since
the view's last refresh cost a scan.

Correctness leans on two invariants established elsewhere and tested
independently: result parity across execution knobs (kernel, backend,
jobs, scan mode — so one cached result answers every configuration),
and version tokens that change whenever a table registration changes
(so a stale fingerprint can never be looked up again).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace

from repro.errors import ServiceError
from repro.cohana.engine import CohanaEngine
from repro.cohana.pipeline import (
    ChunkScheduler,
    ExecStats,
    ExecutionConfig,
    get_kernel,
)
from repro.cohana.operators import lower_plan
from repro.cohana.planner import plan_query
from repro.cohort.query import CohortQuery
from repro.cohort.result import CohortResult
from repro.service.cache import LRUCache
from repro.service.fingerprint import query_key, result_fingerprint

#: Every cache disposition a call can report.
DISPOSITIONS = ("hit", "miss", "bypass", "invalidated", "refresh")


@dataclass
class CachedEntry:
    """One finished query execution, as the result cache stores it.

    ``stats`` and ``config`` describe the *cold* run that produced the
    result; hits hand out copies of both, so callers always see real
    scan counters (of the run that did the work) next to their own
    call's cache disposition.
    """

    fingerprint: str
    key: str
    token: str
    table: str
    result: CohortResult
    stats: ExecStats
    config: ExecutionConfig
    executor: str


@dataclass
class ServiceCounters:
    """Service-level admission counters (cache-level ones live on the
    result :class:`~repro.service.cache.LRUCache`)."""

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    invalidated: int = 0
    refreshes: int = 0
    singleflight_waits: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "bypasses": self.bypasses,
                "invalidated": self.invalidated,
                "refreshes": self.refreshes,
                "singleflight_waits": self.singleflight_waits}


class QueryService:
    """A concurrent, caching frontend over one :class:`CohanaEngine`.

    Args:
        engine: the engine whose catalog and pipeline serve the queries.
        result_entries: LRU bound of the result cache.
        enabled: default caching behaviour; each call can override it
            with ``use_cache=``.
        executor: default per-chunk kernel family.

    Thread safety: all public methods may be called from many threads.
    The engine catalog is read, never written, during queries; callers
    that re-register tables concurrently with queries get whichever
    version token the registration race resolves to — never a torn
    result, because fingerprints bind result bytes to one token.
    """

    def __init__(self, engine: CohanaEngine, result_entries: int = 128,
                 enabled: bool = True, executor: str = "vectorized"):
        self.engine = engine
        self.results = LRUCache(result_entries)
        self.enabled = enabled
        self.default_executor = executor
        self.counters = ServiceCounters()
        self._lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        #: query key -> (token, fingerprint) of the latest cached run,
        #: kept so a stale lookup can be told apart from a cold one
        #: (and its dead entry dropped eagerly instead of aging out).
        #: Bounded like an LRU (see _remember_latest) so a long-running
        #: service under a stream of distinct queries cannot grow it
        #: without limit; losing an old entry merely downgrades a later
        #: "invalidated" disposition to a plain "miss".
        self._latest: OrderedDict[str, tuple[str, str]] = OrderedDict()
        self._latest_bound = 4 * self.results.max_entries

    # -- public API -----------------------------------------------------------

    def query(self, query: CohortQuery | str, **kw) -> CohortResult:
        """Execute (or serve from cache) and return the result."""
        result, _ = self.query_with_stats(query, **kw)
        return result

    def query_with_stats(self, query: CohortQuery | str,
                         executor: str | None = None,
                         jobs: int = 1, backend: str | None = None,
                         scan_mode: str = "auto",
                         pushdown: bool = True, prune: bool = True,
                         use_cache: bool | None = None,
                         **parse_kw) -> tuple[CohortResult, ExecStats]:
        """Execute with the same loose options the engine accepts, plus
        ``use_cache`` (None = the service default); the returned
        :class:`ExecStats` carries the call's cache disposition."""
        executor = executor or self.default_executor
        bound = self._bind(query, parse_kw)
        table, token = self._snapshot(bound.table)
        return self._admit(bound, table, token, executor, jobs, backend,
                           scan_mode, pushdown, prune, use_cache)

    def query_batch(self, queries, concurrency: int | None = None,
                    with_stats: bool = False, **kw) -> list:
        """Run many queries concurrently; results come back in order.

        With caching on, identical queries are deduplicated by
        single-flight admission (one executes, the rest are served its
        result); distinct ones run in parallel on an admission thread
        pool of ``concurrency`` workers (default: one per query,
        capped at 8). When caching is bypassed (``use_cache=False`` or
        a disabled service) every query executes independently —
        bypass means "do not share results", so nothing is
        deduplicated. ``kw`` is passed through to
        :meth:`query_with_stats` for every query. With
        ``with_stats=True`` each element is a ``(result, stats)`` pair
        instead of a bare result.
        """
        if concurrency is not None and concurrency < 1:
            raise ServiceError(
                f"concurrency must be >= 1, got {concurrency}")
        queries = list(queries)
        if not queries:
            return []
        workers = concurrency or min(8, len(queries))
        call = self.query_with_stats if with_stats else self.query
        if workers == 1 or len(queries) == 1:
            return [call(q, **kw) for q in queries]
        with ThreadPoolExecutor(max_workers=min(workers,
                                                len(queries))) as pool:
            futures = [pool.submit(call, q, **kw) for q in queries]
            return [f.result() for f in futures]

    def serve_view(self, name: str, executor: str | None = None,
                   use_cache: bool | None = None,
                   ) -> tuple[CohortResult, ExecStats]:
        """Serve a materialized view through the result cache.

        Views and direct queries share the cache: the view's bound
        query produces an identical result relation, so its
        :func:`~repro.service.fingerprint.result_fingerprint` (bound
        query + table version token) names the same entry — a direct
        query can warm the view and vice versa.

        Dispositions: ``'hit'`` (result cache), ``'refresh'`` (one or
        more newly appended shards were scanned into the view's partial
        store before merging) or ``'miss'`` (re-merged entirely from
        warm per-shard partials — no chunk scanned). ``use_cache=False``
        reports ``'bypass'`` and skips the result cache, but still
        serves from the view's partial store (that is what a view *is*).
        """
        executor = executor or self.default_executor
        view = self.engine.view(name)
        table, token = self._snapshot(view.table)
        if not self._use_cache(use_cache):
            result, stats = self.engine.serve_view(name,
                                                   executor=executor)
            with self._lock:
                self.counters.bypasses += 1
            return result, replace(stats, cache_disposition="bypass")
        fingerprint = result_fingerprint(view.query, token)
        key = query_key(view.query)
        with self._lock:
            entry = self.results.get(fingerprint)
            if entry is not None:
                self.counters.hits += 1
                return self._serve_hit(entry)
        result, stats = self.engine.serve_view(name, executor=executor)
        disposition = "refresh" if stats.shards_scanned else "miss"
        entry = CachedEntry(
            fingerprint=fingerprint, key=key, token=token,
            table=view.table, result=result, stats=stats,
            config=ExecutionConfig.resolve(table=table),
            executor=executor)
        evicted = self.results.put(fingerprint, entry)
        with self._lock:
            self._remember_latest(key, token, fingerprint)
            if disposition == "refresh":
                self.counters.refreshes += 1
            else:
                self.counters.misses += 1
        stats = replace(stats, cache_misses=1, cache_evictions=evicted,
                        cache_disposition=disposition)
        return self._copy_result(result), stats

    def cache_disposition(self, query: CohortQuery | str,
                          use_cache: bool | None = None,
                          **parse_kw) -> str:
        """What a call would report right now, without executing
        (used by EXPLAIN; does not touch cache recency or counters)."""
        if not self._use_cache(use_cache):
            return "bypass"
        bound = self._bind(query, parse_kw)
        token = self.engine.version_token(bound.table)
        fingerprint = result_fingerprint(bound, token)
        if self.results.peek(fingerprint) is not None:
            return "hit"
        with self._lock:
            seen = self._latest.get(query_key(bound))
        if seen is not None and seen[0] != token:
            return "invalidated"
        return "miss"

    def explain(self, query: CohortQuery | str, jobs: int = 1,
                backend: str | None = None, scan_mode: str = "auto",
                pushdown: bool = True, prune: bool = True,
                use_cache: bool | None = None,
                executor: str | None = None, analyze: bool = False,
                **parse_kw) -> str:
        """EXPLAIN through the service: the physical operator tree and
        execution lines plus a ``Cache(...)`` line with the current
        disposition.

        An explicitly requested ``backend`` always survives into the
        output; with ``backend=None`` a *hit* reports the configuration
        of the run that produced the cached result instead of
        re-resolving (re-resolution could flip the auto-picked backend
        between the cold run and the hit, which would misreport what
        actually computed the bytes being served).

        ``analyze=True`` executes the query through the engine —
        deliberately *around* the result cache, so EXPLAIN ANALYZE stays
        observational too — and annotates each operator line with its
        rows-in/rows-out and prune counters.
        """
        bound = self._bind(query, parse_kw)
        table, token = self._snapshot(bound.table)
        disposition = self.cache_disposition(bound, use_cache=use_cache)
        entry = self.results.peek(result_fingerprint(bound, token))
        if backend is None and entry is not None:
            config = entry.config
        else:
            config = ExecutionConfig.resolve(
                jobs=jobs, backend=backend, scan_mode=scan_mode,
                table=table)
        # EXPLAIN must not distort cache state: it only peeks.
        plan = plan_query(bound, table, pushdown=pushdown, prune=prune,
                          scan_mode=config.scan_mode)
        executor = executor or self.default_executor
        physical = lower_plan(plan, get_kernel(executor))
        if analyze:
            result, stats = self.engine.query_with_stats(
                bound, executor=executor, pushdown=pushdown,
                prune=prune, config=config)
            tree = physical.describe(stats=stats, result=result)
        else:
            tree = physical.describe()
        return (f"{tree}\n{config.describe()}\n"
                f"Cache(disposition={disposition}, "
                f"token={token[:18]}, "
                f"entries={len(self.results)}/"
                f"{self.results.max_entries})")

    def invalidate_table(self, name: str) -> int:
        """Explicitly drop every cached result for ``name``; returns
        how many entries were removed."""
        dropped = self.results.invalidate_where(
            lambda e: e.table == name)
        with self._lock:
            self._latest = OrderedDict(
                (k, v) for k, v in self._latest.items()
                if self.results.peek(v[1]) is not None)
        return dropped

    def clear(self) -> None:
        """Drop the result cache (counters keep accumulating)."""
        self.results.clear()
        with self._lock:
            self._latest.clear()

    def stats_snapshot(self) -> dict:
        """All counters in one JSON-able dict (REPL ``.stats``)."""
        return {
            "service": self.counters.as_dict(),
            "results": self.results.counters.as_dict(),
            "entries": len(self.results),
            "max_entries": self.results.max_entries,
        }

    # -- admission ------------------------------------------------------------

    def _use_cache(self, use_cache: bool | None) -> bool:
        return self.enabled if use_cache is None else use_cache

    def _remember_latest(self, key: str, token: str,
                         fingerprint: str) -> None:
        """Record the latest (token, fingerprint) for a query key,
        evicting the least-recently refreshed entries past the bound.
        Caller holds ``self._lock``."""
        self._latest[key] = (token, fingerprint)
        self._latest.move_to_end(key)
        while len(self._latest) > self._latest_bound:
            self._latest.popitem(last=False)

    def _snapshot(self, name: str):
        """A (table, token) pair from one consistent registration.

        The catalog and the version map are two reads; a concurrent
        ``register(replace=True)`` could slip between them and pair
        content B with content A's token — which would let a later
        re-registration of content A serve B's cached bytes. Re-reading
        the token and retrying until it is unchanged guarantees the
        pair belongs to a single registration (tokens never repeat
        across distinct registrations: counters are monotonic, and a
        repeated digest means identical content).
        """
        while True:
            token = self.engine.version_token(name)
            table = self.engine.table(name)
            if self.engine.version_token(name) == token:
                return table, token

    def _bind(self, query: CohortQuery | str, parse_kw) -> CohortQuery:
        if isinstance(query, str):
            return self.engine.parse(query, **parse_kw)
        if parse_kw:
            raise ServiceError(
                "parse options only apply to textual queries")
        return query

    def _admit(self, bound: CohortQuery, table, token: str,
               executor: str, jobs: int, backend: str | None,
               scan_mode: str, pushdown: bool, prune: bool,
               use_cache: bool | None,
               ) -> tuple[CohortResult, ExecStats]:
        if not self._use_cache(use_cache):
            entry = self._execute(bound, table, token, executor, jobs,
                                  backend, scan_mode, pushdown, prune)
            with self._lock:
                self.counters.bypasses += 1
            stats = replace(entry.stats, cache_disposition="bypass")
            return entry.result, stats
        fingerprint = result_fingerprint(bound, token)
        key = query_key(bound)
        with self._lock:
            entry = self.results.get(fingerprint)
            if entry is not None:
                self.counters.hits += 1
                return self._serve_hit(entry)
            future = self._inflight.get(fingerprint)
            leader = future is None
            if leader:
                future = Future()
                self._inflight[fingerprint] = future
                disposition = "miss"
                seen = self._latest.get(key)
                if seen is not None and seen[0] != token:
                    # The table moved on under this query: drop the
                    # stale entry now instead of letting it age out.
                    self.results.invalidate(seen[1])
                    disposition = "invalidated"
        if not leader:
            # Single-flight follower: block on the leader's run. If
            # the leader failed, its exception is the honest answer
            # for identical inputs — propagate it. Counter updates are
            # read-modify-writes, so they happen under the lock (never
            # held across the blocking wait itself).
            with self._lock:
                self.counters.singleflight_waits += 1
            entry = future.result()
            with self._lock:
                self.counters.hits += 1
            return self._serve_hit(entry)
        try:
            entry = self._execute(bound, table, token, executor, jobs,
                                  backend, scan_mode, pushdown, prune)
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(fingerprint, None)
            future.set_exception(exc)
            raise
        evicted = self.results.put(fingerprint, entry)
        with self._lock:
            self._remember_latest(key, token, fingerprint)
            self._inflight.pop(fingerprint, None)
            if disposition == "invalidated":
                self.counters.invalidated += 1
            else:
                self.counters.misses += 1
        future.set_result(entry)
        stats = replace(entry.stats, cache_misses=1,
                        cache_evictions=evicted,
                        cache_invalidations=(
                            1 if disposition == "invalidated" else 0),
                        cache_disposition=disposition)
        return self._copy_result(entry.result), stats

    def _serve_hit(self, entry: CachedEntry,
                   ) -> tuple[CohortResult, ExecStats]:
        stats = replace(entry.stats, cache_hits=1,
                        cache_disposition="hit")
        return self._copy_result(entry.result), stats

    @staticmethod
    def _copy_result(result: CohortResult) -> CohortResult:
        """A per-caller copy: rows are immutable tuples, but the row
        list and column list are not — never hand out cache-owned
        mutables."""
        return CohortResult(columns=list(result.columns),
                            rows=list(result.rows),
                            n_cohort_columns=result.n_cohort_columns)

    # -- execution ------------------------------------------------------------

    def _execute(self, bound: CohortQuery, table, token: str,
                 executor: str, jobs: int, backend: str | None,
                 scan_mode: str, pushdown: bool,
                 prune: bool) -> CachedEntry:
        """One cold run: resolve config once, plan, run the chunk
        pipeline, wrap everything into a cache entry.

        ``table`` and ``token`` come from one :meth:`_snapshot`, so the
        cached bytes are guaranteed to describe the registration the
        fingerprint names even if the catalog changes mid-call.
        """
        config = ExecutionConfig.resolve(jobs=jobs, backend=backend,
                                         scan_mode=scan_mode,
                                         table=table)
        plan = plan_query(bound, table, pushdown=pushdown, prune=prune,
                          scan_mode=config.scan_mode)
        result, stats = ChunkScheduler(table, plan, executor,
                                       config).run()
        return CachedEntry(
            fingerprint=result_fingerprint(bound, token),
            key=query_key(bound), token=token, table=bound.table,
            result=result, stats=stats, config=config,
            executor=executor)
