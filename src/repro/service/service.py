"""The caching query service: fingerprint, admit, execute, remember.

:class:`QueryService` sits between callers and
:class:`~repro.cohana.engine.CohanaEngine` and adds the serving-layer
behaviours the engine itself deliberately lacks:

* a **result cache** keyed by :func:`~repro.service.fingerprint.
  query_key` (the bound query): an entry answers only while its table
  still has the version token it was computed at, else it is dropped
  and the query re-executed by the engine over the table snapshot the
  token came from (planning, EXPLAIN and execution are the engine's);
* **single-flight admission** — concurrent identical queries (same
  :func:`~repro.service.fingerprint.result_fingerprint`) execute once;
  followers block on the leader's in-flight computation and are served
  its result (counted as hits: nothing was re-scanned);
* a **batch API** answering each statement in turn in the caller's
  thread (it starts no threads), one outcome per statement;
* **one execution setting** — kernel, scan mode, jobs and backend —
  and one parse setting — age unit and time-bin origin — fixed and
  validated when the service is built. Callers choose the query, never
  how it is read or run.

Statement text is parsed once, here, and bound through
:meth:`~repro.cohana.engine.CohanaEngine.parse`, which registers an
engine's ``source`` under an unknown FROM name; the stdin and HTTP
frontends only carry statements to the service.

Every call reports its **cache disposition** through
:class:`~repro.cohana.pipeline.ExecStats`:

===============  ====================================================
``hit``          served from cache (or a concurrent leader's run)
``miss``         executed cold and cached; for a view, re-merged from
                 warm per-shard partials (no chunk scanned)
``bypass``       caching disabled for this call — executed, not cached
``invalidated``  a cached result existed but its table version token
                 is stale — re-executed, scanning only segments whose
                 digest the engine's partial cache has not seen
                 (:meth:`~repro.cohana.engine.CohanaEngine.execute`),
                 and re-cached
``refresh``      a materialized view was served after incrementally
                 scanning newly appended shards (:meth:`serve_view`)
===============  ====================================================

Materialized views (:meth:`QueryService.serve_view`) share the result
cache with direct queries: a view's result is identical to running its
bound query, so the query key — and therefore the cached bytes — are
the same. On a result-cache miss the view is re-merged from its cached
per-shard partials instead of re-scanned; only shards appended since
the view's last refresh cost a scan.

Correctness leans on two invariants established elsewhere and tested
independently: result parity across execution settings (kernel,
backend, jobs, scan mode — so a view's merged partials and a direct
run file the same bytes under one key), and version tokens that change
whenever a table registration changes (so a stale entry is never
served). A token also pins the table that
:meth:`~repro.cohana.pipeline.ExecutionConfig.resolve` sees, so a hit
ran under the configuration EXPLAIN reports for it.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, replace

from repro.errors import ReproError
from repro.cohana.engine import CohanaEngine
from repro.cohana.parser import ParsedCohortQuery
from repro.cohana.pipeline import ExecStats, ExecutionConfig, get_kernel
from repro.cohana.planner import check_scan_mode
from repro.cohort.query import CohortQuery
from repro.cohort.result import CohortResult
from repro.common.lru import LRUCache
from repro.service.fingerprint import query_key, result_fingerprint
from repro.storage.sharded import VERIFIED_SHARDS

#: Every cache disposition a call can report.
DISPOSITIONS = ("hit", "miss", "bypass", "invalidated", "refresh")

#: What a call may name as its query: statement text, its parse, or a
#: query already bound (which keeps its own parse options).
Statement = CohortQuery | ParsedCohortQuery | str


@dataclass
class CachedEntry:
    """One finished query execution, as the result cache stores it
    under the bound query's :func:`~repro.service.fingerprint.query_key`.

    ``token`` is the table version the result was computed at: the
    entry answers a lookup only while the table still has that token.
    ``stats`` describe the *cold* run that produced the result; hits
    hand out copies, so callers always see real scan counters (of the
    run that did the work) next to their own call's cache disposition.
    """

    token: str
    table: str
    result: CohortResult
    stats: ExecStats


@dataclass
class ServiceCounters:
    """How the service answered its calls: one counter per disposition,
    plus single-flight waits. Cache-level counters live on the cache
    that owns them (the result :class:`~repro.common.lru.LRUCache`);
    neither kind is copied into a call's :class:`ExecStats`."""

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
        executor: the per-chunk kernel family every query runs with.
        scan_mode: the plan's predicate domain (``'compressed'`` or
            ``'decoded'``).
        jobs, backend: how the scheduler runs the chunk scans, resolved
            per table by :meth:`~repro.cohana.pipeline.ExecutionConfig.
            resolve` (``backend=None`` picks by ``jobs`` and table).
        age_unit, time_bin_origin: how statement text is bound
            (:func:`~repro.cohana.binder.bind_cohort_query`).

    A bad setting raises here, once; no call can choose another.

    Thread safety: all public methods may be called from many threads.
    The engine catalog is read, never written, during queries; callers
    that re-register tables concurrently with queries get whichever
    version token the registration race resolves to — never a torn
    result, because every cached entry is bound to one token.
    """

    def __init__(self, engine: CohanaEngine, result_entries: int = 128,
                 enabled: bool = True, executor: str = "vectorized",
                 scan_mode: str = "compressed", jobs: int = 1,
                 backend: str | None = None, age_unit: str = "day",
                 time_bin_origin: int = 0):
        get_kernel(executor)
        check_scan_mode(scan_mode)
        ExecutionConfig.resolve(jobs=jobs, backend=backend)
        self.engine = engine
        self.results = LRUCache(result_entries)
        self.enabled = enabled
        self.executor = executor
        self.scan_mode = scan_mode
        self.jobs = jobs
        self.backend = backend
        self.age_unit = age_unit
        self.time_bin_origin = time_bin_origin
        self.counters = ServiceCounters()
        self._lock = threading.Lock()
        #: result fingerprint (query + token) -> the leader's run, so
        #: two tokens never share one execution.
        self._inflight: dict[str, Future] = {}

    # -- public API -----------------------------------------------------------

    def query(self, query: Statement,
              use_cache: bool | None = None) -> CohortResult:
        """Execute (or serve from cache) and return the result."""
        result, _ = self.query_with_stats(query, use_cache=use_cache)
        return result

    def query_with_stats(self, query: Statement,
                         use_cache: bool | None = None,
                         ) -> tuple[CohortResult, ExecStats]:
        """Execute under the service's setting; ``use_cache`` (None =
        the service default) decides whether the result cache is used.
        The returned :class:`ExecStats` carries the call's cache
        disposition."""
        bound = self._bind(query)
        table, token = self.engine.snapshot(bound.table)
        return self._admit(bound, table, token, use_cache)

    def query_batch(self, queries, use_cache: bool | None = None) -> list:
        """Run many queries; one outcome per query, in order: its
        ``(result, stats)`` pair, or the :class:`~repro.errors.
        ReproError` it raised, so one failing statement never costs the
        others their answers.

        The statements run one after another in the caller's thread,
        so a batch is one execution at a time under whatever bounds its
        caller's executions (an HTTP admission slot). A hit, and a
        statement identical to one the batch already ran, is answered
        from the result cache; only misses execute. When caching is
        bypassed (``use_cache=False`` or a disabled service) every query
        executes: bypass means "do not share results", so nothing is
        deduplicated.
        """
        def outcome(query: Statement):
            try:
                return self.query_with_stats(query, use_cache=use_cache)
            except ReproError as exc:
                return exc

        return [outcome(q) for q in queries]

    def serve_view(self, name: str, use_cache: bool | None = None,
                   ) -> tuple[CohortResult, ExecStats]:
        """Serve a materialized view through the result cache, under the
        service's setting, as a direct query runs.

        Views and direct queries share the cache: the view's bound
        query produces an identical result relation, so its
        :func:`~repro.service.fingerprint.query_key` names the same
        entry — a direct query can warm the view and vice versa. The
        lookup, the read and the entry all take the token of one engine
        snapshot.

        Dispositions: ``'hit'`` (result cache), ``'refresh'`` (one or
        more newly appended shards were scanned into the view's partial
        store before merging) or ``'miss'`` (re-merged entirely from
        warm per-shard partials — no chunk scanned). ``use_cache=False``
        reports ``'bypass'`` and skips the result cache, but still
        serves from the view's partial store (that is what a view *is*).
        """
        view = self.engine.view(name)
        table, token = self.engine.snapshot(view.table)
        if not self._use_cache(use_cache):
            entry = self._execute(view.query, table, token, view=view)
            with self._lock:
                self.counters.bypasses += 1
            return entry.result, replace(entry.stats,
                                         cache_disposition="bypass")
        key = query_key(view.query)
        with self._lock:
            entry, _ = self._lookup(key, token)
            if entry is not None:
                self.counters.hits += 1
                return self._serve_hit(entry)
        entry = self._execute(view.query, table, token, view=view)
        disposition = "refresh" if entry.stats.shards_scanned else "miss"
        self.results.put(key, entry)
        with self._lock:
            if disposition == "refresh":
                self.counters.refreshes += 1
            else:
                self.counters.misses += 1
        stats = replace(entry.stats, cache_disposition=disposition)
        return self._copy_result(entry.result), stats

    def explain(self, query: Statement,
                use_cache: bool | None = None,
                analyze: bool = False) -> str:
        """The engine's EXPLAIN under the service's setting, plus a
        ``Cache(...)`` line with the disposition a call would report
        right now. The plan (or ANALYZE read), the disposition and the
        token come from one engine snapshot.

        EXPLAIN only peeks: it touches neither cache recency nor
        counters, and ``analyze=True`` executes through the engine,
        around the result cache.
        """
        bound = self._bind(query)
        table, token = self.engine.snapshot(bound.table)
        entry = self.results.peek(query_key(bound))
        if not self._use_cache(use_cache):
            disposition = "bypass"
        elif entry is None:
            disposition = "miss"
        else:
            disposition = "hit" if entry.token == token else "invalidated"
        text = self.engine.describe(
            bound, table, self.executor, self._config(table),
            scan_mode=self.scan_mode, analyze=analyze, token=token)
        return (f"{text}\n"
                f"Cache(disposition={disposition}, "
                f"token={token[:18]}, "
                f"entries={len(self.results)}/"
                f"{self.results.max_entries})")

    def invalidate_table(self, name: str) -> int:
        """Explicitly drop every cached result for ``name``; returns
        how many entries were removed."""
        return self.results.invalidate_where(lambda e: e.table == name)

    def clear(self) -> None:
        """Drop the result cache and the engine's partial cache (not
        their counters)."""
        self.results.clear()
        self.engine.partials.clear()

    def stats_snapshot(self) -> dict:
        """All counters in one JSON-able dict (stdin ``.stats``,
        ``GET /stats``); ``partials`` is the engine's segment-partial
        cache, whose ``hits`` count segments reused by any caller.
        ``shard_verify`` is the process-wide shard-verification memo,
        shared by every service in the process."""
        return {
            "service": self.counters.as_dict(),
            "results": self.results.counters.as_dict(),
            "entries": len(self.results),
            "max_entries": self.results.max_entries,
            "partials": self.engine.partials.snapshot(),
            "shard_verify": VERIFIED_SHARDS.snapshot(),
        }

    # -- admission ------------------------------------------------------------

    def _use_cache(self, use_cache: bool | None) -> bool:
        return self.enabled if use_cache is None else use_cache

    def _lookup(self, key: str, token: str,
                ) -> tuple[CachedEntry | None, bool]:
        """The entry under ``key`` if current at ``token``, and whether
        a stale one was dropped instead — both from one cache lookup."""
        stale = False

        def current(entry: CachedEntry) -> bool:
            nonlocal stale
            stale = entry.token != token
            return not stale

        return self.results.get(key, valid=current), stale

    def _bind(self, query: Statement) -> CohortQuery:
        if isinstance(query, CohortQuery):
            return query
        return self.engine.parse(query, age_unit=self.age_unit,
                                 time_bin_origin=self.time_bin_origin)

    def _admit(self, bound: CohortQuery, table, token: str,
               use_cache: bool | None) -> tuple[CohortResult, ExecStats]:
        if not self._use_cache(use_cache):
            entry = self._execute(bound, table, token, reuse=False)
            with self._lock:
                self.counters.bypasses += 1
            stats = replace(entry.stats, cache_disposition="bypass")
            return entry.result, stats
        key = query_key(bound)
        with self._lock:
            entry, stale = self._lookup(key, token)
            if entry is not None:
                self.counters.hits += 1
                return self._serve_hit(entry)
            disposition = "invalidated" if stale else "miss"
            fingerprint = result_fingerprint(bound, token)
            future = self._inflight.get(fingerprint)
            leader = future is None
            if leader:
                future = Future()
                self._inflight[fingerprint] = future
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
            entry = self._execute(bound, table, token, reuse=True)
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(fingerprint, None)
            future.set_exception(exc)
            raise
        self.results.put(key, entry)
        with self._lock:
            self._inflight.pop(fingerprint, None)
            if disposition == "invalidated":
                self.counters.invalidated += 1
            else:
                self.counters.misses += 1
        future.set_result(entry)
        stats = replace(entry.stats, cache_disposition=disposition)
        return self._copy_result(entry.result), stats

    def _serve_hit(self, entry: CachedEntry,
                   ) -> tuple[CohortResult, ExecStats]:
        stats = replace(entry.stats, cache_disposition="hit")
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
                 reuse: bool = True, view=None) -> CachedEntry:
        """One run through the engine, wrapped into a cache entry.

        ``table`` and ``token`` come from one engine snapshot, so the
        cached bytes describe the registration the entry's token names
        even if the catalog changes mid-call; the backend is resolved
        against that same table. ``reuse`` and ``view`` are the
        engine's: a bypassed direct call neither reads nor files
        segment partials, and a view always does.
        """
        result, stats = self.engine.execute(
            bound, table, self.executor, self._config(table),
            scan_mode=self.scan_mode, reuse=reuse, view=view, token=token)
        return CachedEntry(
            token=token, table=bound.table, result=result, stats=stats)

    def _config(self, table) -> ExecutionConfig:
        """The service's ``jobs`` / ``backend`` resolved for ``table``."""
        return ExecutionConfig.resolve(jobs=self.jobs,
                                       backend=self.backend, table=table)
