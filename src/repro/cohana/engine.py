"""The COHANA engine facade (Figure 4: parser, catalog, storage manager,
query executor).

Typical use::

    engine = CohanaEngine()
    engine.create_table("GameActions", activity_table)
    result = engine.query('''
        SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
        FROM GameActions
        BIRTH FROM action = "launch" AND role = "dwarf"
        AGE ACTIVITIES IN action = "shop"
        COHORT BY country
    ''')
    print(result.to_text())

Execution goes through the chunk pipeline
(:mod:`repro.cohana.pipeline`): the plan becomes per-chunk scan tasks run
by the selected kernel (``executor='vectorized'`` or ``'iterator'``)
under an :class:`~repro.cohana.pipeline.ExecutionConfig` resolved from
the loose ``jobs`` / ``backend`` options::

    result = engine.query(text, jobs=4)              # auto backend
    result = engine.query(text, jobs=4, backend="processes")
    result = engine.query(text, scan_mode="compressed")

The config selects the scan backend (``'serial'``, ``'threads'`` or
``'processes'`` — with ``jobs > 1`` and no explicit backend, tables
loaded from a ``.cohana`` file get ``processes``, whose workers reopen
the file by path and scan chunks on real cores; in-memory tables get
``threads``) and the worker count. How predicates are evaluated is a
plan option, like ``pushdown`` and ``prune``: ``scan_mode='compressed'``
(default) evaluates in the compressed domain with zone-map pruning,
``'decoded'`` materializes codes first (the legacy path). Results are
identical across modes. Chunk independence (no user spans two chunks)
makes the parallel merge exact.

Every read — a query, a view's refresh or serve, EXPLAIN — is planned,
given its partial store and run by one method. A single file is a
one-segment table, scanned and merged on the path a sharded directory
takes, and EXPLAIN renders the
:class:`~repro.cohana.operators.PhysicalPlan` its chunks run. A sharded
table, of any shard count, is read through the engine's segment-partial
cache (:attr:`CohanaEngine.partials`): after an append, a query scans
only the new shards, and after a compaction none. A view always reads
and fills that cache; a view of a table directory also persists each
partial, and reads the file only when the cache misses.

A table and its version token come out of the catalog together
(:meth:`CohanaEngine.snapshot`): every read takes both from that one
locked read, never from two.

An engine built with a ``source`` path serves that file or table
directory under whatever name a statement's FROM clause gives it: the
first statement naming a table the catalog lacks registers the source
under that name (:meth:`CohanaEngine.resolve`). Parsing, statements and
the query service all bind through it, so a frontend never loads a
table itself.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import CatalogError
from repro.cohana.binder import bind_cohort_query
from repro.cohana.parser import (
    ParsedCohortQuery,
    ParsedCreateView,
    ParsedDropView,
    ParsedStatement,
    parse_cohort_query,
    parse_statement,
)
from repro.cohana.pipeline import (
    ChunkPartial,
    ChunkScheduler,
    ExecStats,
    ExecutionConfig,
    SegmentPartials,
    narrowed,
    table_segments,
)
from repro.cohana.planner import CohortPlan, plan_query
# Importing the executor modules registers their kernels with the
# pipeline registry; nothing else is needed from them here.
from repro.cohana import iterator_executor, vectorized  # noqa: F401
from repro.cohort.query import CohortQuery
from repro.cohort.result import CohortResult
from repro.common.lru import LRUCache
from repro.storage import compress, load, load_sharded, save
from repro.storage.reader import CompressedActivityTable
from repro.storage.writer import DEFAULT_CHUNK_ROWS
from repro.table import ActivityTable

if TYPE_CHECKING:
    from repro.views.catalog import MaterializedView
    from repro.views.store import DiskViewStore


class CohanaEngine:
    """A catalog of compressed activity tables plus the query pipeline.

    Every registration also stamps a per-table **version token** — the
    file's content digest for tables loaded from ``.cohana`` files, a
    monotonically increasing counter for tables compressed in memory.
    Re-registering a name (``create_table``/``register`` with
    ``replace=True``, or loading a rewritten file) changes the token,
    which is what lets the query service (:mod:`repro.service`) key its
    result cache on ``(bound query, token)`` and never serve a result
    computed against old data.
    """

    def __init__(self, source: str | Path | None = None):
        #: The file or table directory a statement's unknown FROM name
        #: is bound to (:meth:`resolve`); None binds nothing.
        self.source = source
        self._catalog: dict[str, CompressedActivityTable] = {}
        self._versions: dict[str, str] = {}
        self._mem_version_counter = 0
        #: Guards the catalog / version map / counter as one unit: the
        #: query service registers and replaces tables from concurrent
        #: admission threads, and an unguarded counter bump is a lost
        #: update waiting to happen (two registrations sharing one
        #: ``mem:`` token would let stale cached results survive).
        self._catalog_lock = threading.RLock()
        #: ``(view fingerprint, segment digest)`` -> folded segment
        #: partial of a sharded read or a view (:meth:`_read`); holds a
        #: hot set × live shards plus a round of cold queries.
        self.partials = LRUCache(1024)
        # Imported here, not at module top: the view catalog pulls in
        # the service-layer fingerprint module, whose package imports
        # this module back.
        from repro.views.catalog import ViewCatalog
        self._view_catalog = ViewCatalog(self)

    # -- storage manager ------------------------------------------------------

    def _stamp_version(self, name: str,
                       table: CompressedActivityTable) -> None:
        """Record the version token of a (re-)registered table.
        Caller holds ``self._catalog_lock``.

        Sharded tables prefer their *logical* digest (the multiset row
        hash that survives compaction) over the physical composed
        digest, so a compaction — new shard files, same rows — keeps
        the token and the service result caches keyed on it warm,
        while an append or retention prune still rolls it. Tables
        without any digest fall back to a per-process counter.
        """
        digest = (getattr(table, "logical_digest", None)
                  or getattr(table, "content_digest", None))
        if digest:
            self._versions[name] = f"sha256:{digest}"
        else:
            self._mem_version_counter += 1
            self._versions[name] = f"mem:{self._mem_version_counter}"

    def snapshot(self, name: str,
                 ) -> tuple[CompressedActivityTable, str]:
        """Table ``name`` and its version token, from one registration.

        Every registration writes both under the catalog lock, and this
        reads both under it, so a concurrent ``register(replace=True)``
        can never pair one registration's table with another's token.
        Whatever caches a result under a token takes the table it
        scans from here.
        """
        with self._catalog_lock:
            return self.table(name), self._versions[name]

    def version_token(self, name: str) -> str:
        """The current version token of table ``name``.

        Changes whenever the registration changes (``replace=True`` or
        a reloaded file whose bytes differ), so equality of tokens
        implies cached results for the table are still valid.
        """
        return self.snapshot(name)[1]

    def create_table(self, name: str, table: ActivityTable,
                     target_chunk_rows: int = DEFAULT_CHUNK_ROWS,
                     replace: bool = False,
                     ) -> CompressedActivityTable:
        """Compress ``table`` and register it under ``name``.

        With ``replace=True`` an existing registration is overwritten
        instead of raising :class:`~repro.errors.CatalogError`.
        """
        with self._catalog_lock:
            # Fail before the O(rows) compression; register()'s own
            # locked check stays authoritative against races.
            if name in self._catalog and not replace:
                raise CatalogError(f"table {name!r} already exists")
        compressed = compress(table, target_chunk_rows=target_chunk_rows)
        self.register(name, compressed, replace=replace)
        return compressed

    def register(self, name: str, compressed: CompressedActivityTable,
                 replace: bool = False) -> None:
        """Register an already-compressed table (``replace`` as above)."""
        with self._catalog_lock:
            if name in self._catalog and not replace:
                raise CatalogError(f"table {name!r} already exists")
            self._catalog[name] = compressed
            self._stamp_version(name, compressed)

    def drop_table(self, name: str) -> None:
        """Remove ``name`` from the catalog, along with every
        materialized view registered over it (their definitions and
        partial files included — no orphaned view state survives)."""
        with self._catalog_lock:
            self.table(name)
            # While the table is still registered, its view store is
            # still reachable (the disk store location derives from the
            # table's source path).
            self._view_catalog.drop_table_views(name)
            del self._catalog[name]
            del self._versions[name]

    def table(self, name: str) -> CompressedActivityTable:
        """Look up a registered table."""
        try:
            return self._catalog[name]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r}; have {sorted(self._catalog)}"
            ) from None

    def resolve(self, name: str) -> CompressedActivityTable:
        """Table ``name``; an engine built with a ``source`` registers
        it under ``name`` on first use, once, under the catalog lock."""
        with self._catalog_lock:
            if self.source is not None and name not in self._catalog:
                self.load_table(name, self.source)
            return self.table(name)

    def tables(self) -> list[str]:
        """All registered table names."""
        return sorted(self._catalog)

    def save_table(self, name: str, path: str | Path) -> int:
        """Persist a table to a ``.cohana`` file; returns bytes written."""
        return save(self.table(name), path)

    def load_table(self, name: str, path: str | Path,
                   replace: bool = False) -> CompressedActivityTable:
        """Load a ``.cohana`` file (or sharded table directory) and
        register it under ``name`` (``replace`` as above).

        Views persisted next to a sharded table's manifest are
        re-attached automatically, with their cached per-shard partials
        intact — a view survives a process restart warm.
        """
        return self._install(name, load(path), replace=replace)

    def _install(self, name: str, compressed: CompressedActivityTable,
                 replace: bool) -> CompressedActivityTable:
        """Register a table read from disk and re-attach its views."""
        with self._catalog_lock:
            self.register(name, compressed, replace=replace)
            self._view_catalog.attach(name)
        return compressed

    def refresh_table(self, name: str,
                      refresh_views: bool = True,
                      ) -> CompressedActivityTable:
        """Re-load a disk-backed table from its ``source_path``.

        The canonical way to pick up appended shards (or a rewritten
        file): the reloaded registration gets a fresh version token, so
        the query service invalidates exactly when the bytes changed —
        a byte-identical refresh keeps the same ``sha256:`` token and
        every cached result stays warm. A sharded table re-opens only
        its new shards: each shard the current snapshot already holds
        (same file, same digest) is verified and kept, with the chunks
        it has parsed (:func:`~repro.storage.sharded.load_sharded`).

        Materialized views over the table are refreshed incrementally
        afterwards (``refresh_views=False`` defers that to the next
        serve): partials are keyed by *shard content digest*, so only
        shards new since the last refresh are scanned — zero shards
        for a byte-identical reload.
        """
        current = self.table(name)
        source = getattr(current, "source_path", None)
        if not source:
            raise CatalogError(
                f"table {name!r} was not loaded from disk; re-register "
                f"it instead of refreshing")
        fresh = (load_sharded(source, reuse=current)
                 if getattr(current, "is_sharded", False) else load(source))
        table = self._install(name, fresh, replace=True)
        if refresh_views:
            for view in self._view_catalog.views_of(name):
                self.refresh_view(view.name)
        return table

    # -- parser / binder -------------------------------------------------------

    def parse(self, statement: str | ParsedCohortQuery,
              age_unit: str = "day",
              time_bin_origin: int = 0) -> CohortQuery:
        """Bind a cohort query, parsed here when given as text, against
        its FROM table (:meth:`resolve`)."""
        parsed = (parse_cohort_query(statement)
                  if isinstance(statement, str) else statement)
        schema = self.resolve(parsed.table).schema
        return bind_cohort_query(parsed, schema, age_unit=age_unit,
                                 time_bin_origin=time_bin_origin)

    # -- materialized views ----------------------------------------------------

    def create_view(self, name: str, query: "CohortQuery | str",
                    replace: bool = False, refresh: bool = True,
                    text: str | None = None,
                    age_unit: str = "day", time_bin_origin: int = 0):
        """Register a materialized view ``name`` over a cohort query.

        ``query`` may be statement text (parsed and bound here; the
        text is persisted next to a sharded table's manifest so the
        view survives restarts) or an already-bound
        :class:`~repro.cohort.query.CohortQuery` (pass ``text`` to make
        it persistable). With ``refresh=True`` (default) the view's
        per-shard partials are computed immediately; cached partials
        from an earlier life of the same definition are reused, so
        recreating a known view over unchanged shards scans nothing.

        Returns the registered
        :class:`~repro.views.catalog.MaterializedView`.
        """
        with self._catalog_lock:
            if isinstance(query, str):
                text = query
                query = self.parse(query, age_unit=age_unit,
                                   time_bin_origin=time_bin_origin)
            view = self._view_catalog.create(name, query, text=text,
                                             replace_existing=replace)
        if refresh:
            self.refresh_view(name)
        return view

    def drop_view(self, name: str, missing_ok: bool = False) -> bool:
        """Unregister a view and delete its persisted definition and
        partial files. Returns True when a view was dropped."""
        with self._catalog_lock:
            return self._view_catalog.drop(name, missing_ok=missing_ok)

    def views(self) -> list[str]:
        """All registered view names."""
        return self._view_catalog.names()

    def view(self, name: str):
        """Look up a registered view."""
        return self._view_catalog.get(name)

    def view_status(self, name: str) -> dict:
        """A JSON-able freshness summary: how many of the table's
        current shards have cached partials for this view."""
        return self._view_catalog.status(name)

    def refresh_view(self, name: str) -> ExecStats:
        """Bring a view's partials up to date incrementally, building no
        rows: only segments whose content digest has no partial are
        scanned, so ``stats.shards_scanned`` counts the *new* shards (0
        after a byte-identical reload) and ``stats.shards_total`` the
        table's current ones."""
        stats = ExecStats()
        self._read_view(name, lambda scheduler:
                        scheduler.segment_partials(stats))
        return stats

    def serve_view(self, name: str) -> tuple[CohortResult, ExecStats]:
        """Serve a view: the refresh, then its partials merged in segment
        order. Result-identical to executing the view's query directly;
        only the work done differs."""
        return self._read_view(name, ChunkScheduler.run)

    def _read_view(self, name: str, step):
        """``step`` over view ``name``'s table under the engine
        defaults (the query service runs views under its own
        setting, through :meth:`execute`)."""
        view = self.view(name)
        table, token = self.snapshot(view.table)
        return self._read(view.query, table, "vectorized",
                          ExecutionConfig(), step, scan_mode="compressed",
                          view=view, token=token)

    def query_view(self, name: str) -> CohortResult:
        """:meth:`serve_view` without the stats."""
        return self.serve_view(name)[0]

    def execute_statement(self, statement: str | ParsedStatement,
                          age_unit: str = "day", time_bin_origin: int = 0,
                          **exec_kw):
        """Run one statement of the extended language, parsed here when
        given as text.

        A plain cohort query executes and returns its
        :class:`~repro.cohort.result.CohortResult`; ``CREATE [OR
        REPLACE] MATERIALIZED VIEW`` registers (and refreshes) the view
        and returns the :class:`~repro.views.catalog.MaterializedView`;
        ``DROP MATERIALIZED VIEW [IF EXISTS]`` drops it and returns
        whether a view existed.
        """
        parsed = (parse_statement(statement)
                  if isinstance(statement, str) else statement)
        if isinstance(parsed, ParsedDropView):
            return self.drop_view(parsed.name,
                                  missing_ok=parsed.if_exists)
        if isinstance(parsed, ParsedCreateView):
            bound = self.parse(parsed.query, age_unit=age_unit,
                               time_bin_origin=time_bin_origin)
            return self.create_view(parsed.name, bound,
                                    replace=parsed.or_replace,
                                    text=parsed.query_text)
        return self.query(self.parse(parsed, age_unit=age_unit,
                                     time_bin_origin=time_bin_origin),
                          **exec_kw)

    # -- query executor --------------------------------------------------------

    def plan(self, query: CohortQuery | str, pushdown: bool = True,
             prune: bool = True, scan_mode: str = "compressed",
             **parse_kw) -> CohortPlan:
        """Build the physical plan (push-down + pruning decisions) of
        the table's first segment: a sharded table's first shard."""
        if isinstance(query, str):
            query = self.parse(query, **parse_kw)
        first = table_segments(self.table(query.table))[0]
        return plan_query(query, first, pushdown=pushdown, prune=prune,
                          scan_mode=scan_mode)

    def query_with_stats(self, query: CohortQuery | str,
                         executor: str = "vectorized",
                         pushdown: bool = True, prune: bool = True,
                         jobs: int = 1, backend: str | None = None,
                         scan_mode: str = "compressed",
                         **parse_kw) -> tuple[CohortResult, ExecStats]:
        """Execute and also return execution statistics.

        ``executor`` picks the per-chunk kernel family and ``scan_mode``
        the plan's predicate domain; ``jobs`` / ``backend`` pick how the
        scheduler runs the chunk scans.
        """
        if isinstance(query, str):
            query = self.parse(query, **parse_kw)
        table, token = self.snapshot(query.table)
        config = ExecutionConfig.resolve(jobs=jobs, backend=backend,
                                         table=table)
        return self.execute(query, table, executor, config,
                            pushdown=pushdown, prune=prune,
                            scan_mode=scan_mode, token=token)

    def execute(self, query: CohortQuery, table: CompressedActivityTable,
                executor: str, config: ExecutionConfig, *,
                scan_mode: str, pushdown: bool = True, prune: bool = True,
                reuse: bool = True, view: MaterializedView | None = None,
                token: str = "",
                ) -> tuple[CohortResult, ExecStats]:
        """Plan a bound query over ``table`` and run it to rows.

        ``table`` and its version ``token`` are passed in rather than
        looked up so that a caller holding a :meth:`snapshot` scans
        exactly the registration its token names (the query service
        caches results under it). ``view`` is the
        :class:`~repro.views.catalog.MaterializedView` whose query this
        is, when a view is read.
        """
        return self._read(query, table, executor, config, ChunkScheduler.run,
                          scan_mode=scan_mode, pushdown=pushdown,
                          prune=prune, reuse=reuse, view=view, token=token)

    def _read(self, query: CohortQuery, table: CompressedActivityTable,
              executor: str, config: ExecutionConfig, step, *,
              scan_mode: str, pushdown: bool = True, prune: bool = True,
              reuse: bool = True, view: MaterializedView | None = None,
              token: str = ""):
        """The one read: plan ``query`` on ``table``'s first segment,
        give it its partial store, and return ``step(scheduler)`` —
        rows, a view's partials only, or EXPLAIN's rendering.

        The store rule: a view always reads through its store, and with
        ``reuse`` a sharded table, at any shard count, does too. A
        segment held there for this query is not scanned — after an
        append only the new shards are, and after a compaction none,
        when the merged shard's partial can be composed from its
        sources'. A direct read of a single file or an in-memory table
        gets no store. Partials are filed by segment digest; a segment
        without one, by ``token``, which only a one-segment table may
        do. After a view's read, the catalog tidies its files.
        """
        # Imported here for the reason ViewCatalog is, in __init__.
        from repro.service.fingerprint import view_fingerprint
        segments = table_segments(table)
        plan = plan_query(query, segments[0], pushdown=pushdown,
                          prune=prune, scan_mode=scan_mode)
        sharded = getattr(table, "is_sharded", False)
        disk = self._view_catalog.store_at(table) if view else None
        store = None
        if view or (reuse and sharded):
            if sharded and not all(s.content_digest for s in segments):
                # Shards would share the token as their key.
                raise ValueError("a shard without a content digest")
            store = self._partial_store(
                view.fingerprint if view else view_fingerprint(query),
                token, disk, [agg.func for agg in query.aggregates])
        out = step(ChunkScheduler(table, plan, executor, config,
                                  partials=store))
        if disk is not None:
            self._view_catalog.file_partials(disk, view, table, token)
        return out

    def _partial_store(self, fingerprint: str, token: str,
                       disk: DiskViewStore | None,
                       funcs: Sequence[str]) -> SegmentPartials:
        """One query's segment partials in :attr:`partials`, filed
        ``(fingerprint, segment digest)`` — or ``token``, the table's
        version token, for a segment without a content digest.
        ``fingerprint`` is the bound query's
        :func:`~repro.service.fingerprint.view_fingerprint`.

        A view of a table directory passes its ``disk`` store, and
        ``funcs``, the query's aggregates: a get tries memory first,
        then the file, and a file hit fills memory; a put writes both.
        A view and its direct query therefore share every entry."""
        def get(digest: str) -> ChunkPartial | None:
            partial = self.partials.get((fingerprint, digest))
            if partial is None and disk is not None:
                partial = disk.get_partial(fingerprint, digest, funcs)
                if partial is not None:
                    self.partials.put((fingerprint, digest),
                                      narrowed(partial))
            return partial

        def put(digest: str, partial: ChunkPartial) -> None:
            self.partials.put((fingerprint, digest), narrowed(partial))
            if disk is not None:
                disk.put_partial(fingerprint, digest, partial)

        return SegmentPartials(get, put, token)

    def query(self, query: CohortQuery | str,
              executor: str = "vectorized", **kw) -> CohortResult:
        """Execute a cohort query and return its result relation."""
        result, _ = self.query_with_stats(query, executor=executor, **kw)
        return result

    def explain(self, query: CohortQuery | str, pushdown: bool = True,
                prune: bool = True, scan_mode: str = "compressed",
                jobs: int = 1, backend: str | None = None,
                executor: str = "vectorized", analyze: bool = False,
                **parse_kw) -> str:
        """The physical plan, one line per logical stage (EXPLAIN).

        The TableScan line shows the ``scan_mode`` and the trailing
        :class:`ExecutionConfig` line the ``jobs`` / ``backend`` a query
        would run with, without executing it. With ``analyze=True`` the
        query is executed as a read is (the plan and partial store
        rendered are the read's) and each operator line carries that
        read's rows-in/rows-out and prune counters; shards served from
        the store add ``shards_reused=n`` to the TableScan line.

        Global ids (``birth_gid``, ``IN ids[...]``) are per segment:
        the plan shown is the first segment's, and a table of several
        segments gets a ``Segments(count=n)`` line that says so.
        """
        if isinstance(query, str):
            query = self.parse(query, **parse_kw)
        table, token = self.snapshot(query.table)
        config = ExecutionConfig.resolve(jobs=jobs, backend=backend,
                                         table=table)
        return self.describe(query, table, executor, config,
                             scan_mode=scan_mode, pushdown=pushdown,
                             prune=prune, analyze=analyze, token=token)

    def describe(self, query: CohortQuery,
                 table: CompressedActivityTable, executor: str,
                 config: ExecutionConfig, *, scan_mode: str,
                 pushdown: bool = True, prune: bool = True,
                 analyze: bool = False, token: str = "") -> str:
        """:meth:`explain` of a bound query over ``table`` and its
        ``token``, passed in as :meth:`execute` takes them, so that a
        caller holding a :meth:`snapshot` describes (or, with
        ``analyze``, reads) exactly the registration its token names."""
        def step(scheduler: ChunkScheduler) -> str:
            physical = scheduler.segments[0].physical
            if not analyze:
                return physical.describe()
            result, stats = scheduler.run()
            return physical.describe(stats=stats, result=result)

        tree = self._read(query, table, executor, config, step,
                          scan_mode=scan_mode, pushdown=pushdown,
                          prune=prune, token=token)
        segments = len(table_segments(table))
        if segments > 1:
            tree += (f"\nSegments(count={segments}) "
                     "[ids shown are segment 1's]")
        return f"{tree}\n{config.describe()}"
