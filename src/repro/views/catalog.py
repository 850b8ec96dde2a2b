"""The materialized-view registry and its refresh / serve paths.

A :class:`MaterializedView` is a bound cohort query registered under a
name; :class:`ViewCatalog` (one per engine) maps names to views, keeps
the per-table partial stores, and implements the two operations that
make views cheap:

* **refresh** — walk the table's segments (its shards; a single file
  is its own only segment) and compute a value-space partial for every
  one whose content digest has no cached partial yet
  (:func:`~repro.cohana.pipeline.shard_value_partial`). After an
  append only the new shard's digest is unseen, so refresh cost is
  O(new shard); after a byte-identical reload every digest is already
  cached and refresh scans nothing.
* **serve** — refresh, then re-merge the cached partials of the
  *current* shard set and finalize. No chunk is scanned for shards with
  warm partials, so post-append serve latency stays flat as the table
  grows.

Exactness rests on two storage invariants: the writer never splits a
user across chunks, and :func:`~repro.storage.sharded.append_shard`
never splits a user across shards — per-shard partials therefore merge
exactly for every aggregate, including COHORTSIZE and USERCOUNT.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import CatalogError
from repro.cohana.binder import bind_cohort_query
from repro.cohana.parser import parse_cohort_query
from repro.cohana.pipeline import (
    ExecStats,
    MergeState,
    build_rows,
    shard_value_partial,
    table_segments,
)
from repro.cohort.query import CohortQuery
from repro.cohort.result import CohortResult
from repro.service.fingerprint import view_fingerprint
from repro.views.store import (
    DEFINITION_VERSION,
    VIEWS_DIRNAME,
    DiskViewStore,
    MemoryViewStore,
)

#: View names must be safe as file-name stems (``<name>.view.json``).
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class MaterializedView:
    """One registered view.

    Attributes:
        name: catalog name (also the definition file's stem).
        table: the registered table the view reads.
        query: the bound cohort query.
        fingerprint: :func:`~repro.service.fingerprint.view_fingerprint`
            of ``query`` — the partial-store key prefix.
        text: the original statement text when the view was created
            from text, else None. Only text-backed views persist their
            definition (text is what makes them rebindable after a
            restart); partials are keyed by fingerprint and persist
            either way.
    """

    name: str
    table: str
    query: CohortQuery
    fingerprint: str
    text: str | None = None


class ViewCatalog:
    """Per-engine view registry. The engine calls the registry methods
    (create, drop, attach) under its catalog lock, so views mutate with
    tables atomically. Refresh and serve run without it: each reads the
    table and its token from one :meth:`CohanaEngine.snapshot`."""

    def __init__(self, engine):
        self._engine = engine
        self._views: dict[str, MaterializedView] = {}
        #: Fallback stores for tables without a sharded directory,
        #: keyed by table name; kept for the process lifetime.
        self._mem_stores: dict[str, MemoryViewStore] = {}

    # -- registry -------------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._views)

    def get(self, name: str) -> MaterializedView:
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(
                f"unknown view {name!r}; have {sorted(self._views)}"
            ) from None

    def views_of(self, table_name: str) -> list[MaterializedView]:
        return [v for v in self._views.values() if v.table == table_name]

    def create(self, name: str, query: CohortQuery,
               text: str | None = None,
               replace_existing: bool = False) -> MaterializedView:
        """Register a view over a bound query (no scan happens here)."""
        if not _NAME_RE.match(name):
            raise CatalogError(
                f"invalid view name {name!r} (need an identifier)")
        if name in self._views and not replace_existing:
            raise CatalogError(f"view {name!r} already exists")
        if query.table is None:
            raise CatalogError(
                "a materialized view needs a query bound to a table")
        self._engine.table(query.table)  # raises on unknown tables
        old = self._views.get(name)
        view = MaterializedView(name=name, table=query.table, query=query,
                                fingerprint=view_fingerprint(query),
                                text=text)
        self._views[name] = view
        if old is not None and old.fingerprint != view.fingerprint:
            self._drop_state(old, definition=True)
        if text is not None:
            self.store_for(view.table).save_definition(
                self._definition_payload(view))
        return view

    def drop(self, name: str, missing_ok: bool = False) -> bool:
        """Unregister a view and remove its persisted state."""
        view = self._views.pop(name, None)
        if view is None:
            if missing_ok:
                return False
            raise CatalogError(
                f"unknown view {name!r}; have {sorted(self._views)}")
        self._drop_state(view, definition=True)
        if not self.views_of(view.table):
            try:
                store = self.store_for(view.table)
            except CatalogError:
                store = None
            if isinstance(store, DiskViewStore):
                store.remove_if_empty()
        return True

    def _drop_state(self, view: MaterializedView,
                    definition: bool) -> None:
        """Remove a view's store files; partials are shared by
        fingerprint, so they survive while any other view of the same
        table still uses them."""
        try:
            store = self.store_for(view.table)
        except CatalogError:
            # Table already gone from the catalog (and a sharded
            # directory's store location is derived from it) — nothing
            # reachable to clean.
            return
        if definition:
            store.drop_definition(view.name)
        shared = any(v.fingerprint == view.fingerprint
                     and v.table == view.table
                     for v in self._views.values())
        if not shared:
            store.drop_partials(view.fingerprint)

    def drop_table_views(self, table_name: str) -> list[str]:
        """Drop every view of ``table_name`` (definitions + partials).
        Called by the engine *before* the table leaves the catalog, so
        the disk store is still reachable."""
        dropped = []
        for view in self.views_of(table_name):
            self.drop(view.name)
            dropped.append(view.name)
        if dropped:
            store = self.store_for(table_name)
            if isinstance(store, DiskViewStore):
                store.remove_if_empty()
        self._mem_stores.pop(table_name, None)
        return dropped

    # -- persistence ----------------------------------------------------------

    def store_for(self, table_name: str):
        """The partial store for a table: on disk next to the manifest
        for table directories, in memory otherwise."""
        source = getattr(self._engine.table(table_name), "source_path",
                         None)
        if source and Path(source).is_dir():
            return DiskViewStore(Path(source) / VIEWS_DIRNAME)
        return self._mem_stores.setdefault(table_name, MemoryViewStore())

    def _definition_payload(self, view: MaterializedView) -> dict:
        return {
            "format": "cohana-view",
            "version": DEFINITION_VERSION,
            "name": view.name,
            "table": view.table,
            "text": view.text,
            "fingerprint": view.fingerprint,
            "age_unit": view.query.age_unit,
            "time_bin_origin": view.query.time_bin_origin,
        }

    def attach(self, table_name: str) -> list[MaterializedView]:
        """Register the views persisted next to ``table_name``'s data.

        Called when a table is (re)loaded from disk. Definitions are
        re-bound from their stored text against the current schema; the
        fingerprint is recomputed from the bound query (the stored one
        is informational). A name already registered to a *different*
        table is left alone.
        """
        attached = []
        for payload in self.store_for(table_name).load_definitions():
            name = payload["name"]
            existing = self._views.get(name)
            if existing is not None and existing.table != table_name:
                continue
            query = self._bind_text(table_name, payload["text"],
                                    payload.get("age_unit", "day"),
                                    payload.get("time_bin_origin", 0))
            view = MaterializedView(
                name=name, table=table_name, query=query,
                fingerprint=view_fingerprint(query), text=payload["text"])
            self._views[name] = view
            attached.append(view)
        return attached

    def _bind_text(self, table_name: str, text: str, age_unit: str,
                   time_bin_origin: int) -> CohortQuery:
        """Bind stored view text against a table, whatever catalog name
        the table currently goes by."""
        parsed = parse_cohort_query(text)
        schema = self._engine.table(table_name).schema
        bound = bind_cohort_query(parsed, schema, age_unit=age_unit,
                                  time_bin_origin=time_bin_origin)
        return replace(bound, table=table_name)

    def status(self, name: str) -> dict:
        """A JSON-able freshness summary of one view (CLI ``view list``
        and the serve frontend's ``.views``)."""
        view = self.get(name)
        store = self.store_for(view.table)
        _table, _token, units = self._shard_units(view)
        cached = sum(1 for _shard, digest in units
                     if store.has_partial(view.fingerprint, digest))
        return {
            "name": view.name,
            "table": view.table,
            "fingerprint": view.fingerprint,
            "shards_total": len(units),
            "shards_cached": cached,
            "persisted": view.text is not None,
        }

    # -- refresh / serve ------------------------------------------------------

    def _shard_units(self, view: MaterializedView):
        """The table, its version token and the ``(segment, digest)``
        pairs covering its current data: one per segment, keyed by its
        content digest (or the version token for in-memory tables,
        which changes on every re-registration — exactly when a
        recompute is due). Table and token come from one
        :meth:`CohanaEngine.snapshot`, so a partial is never stored
        under another registration's token.
        """
        table, token = self._engine.snapshot(view.table)
        return table, token, [(segment, segment.content_digest or token)
                              for segment in table_segments(table)]

    def refresh(self, name: str, executor: str = "vectorized") -> ExecStats:
        """Compute and cache partials for shards with unseen digests.

        Returns stats where ``shards_total`` counts the table's current
        shards and ``shards_scanned`` the ones actually computed now —
        0 when every partial was warm (e.g. after a byte-identical
        reload), exactly the number of new shards after an append. The
        chunk/row counters cover only the newly scanned shards.

        Partials keyed by digests the current shard set no longer
        contains — shards a compaction merged away or retention
        dropped — are stale by construction and deleted here, so
        ``VIEWS/partials/`` never accumulates orphans across shard
        rewrites.
        """
        view = self.get(name)
        _table, _token, units = self._shard_units(view)
        return self._refresh(view, units, executor)

    def _refresh(self, view: MaterializedView, units,
                 executor: str) -> ExecStats:
        store = self.store_for(view.table)
        stats = ExecStats(shards_total=len(units))
        funcs = [agg.func for agg in view.query.aggregates]
        for shard, digest in units:
            if store.get_partial(view.fingerprint, digest, funcs) \
                    is not None:
                continue
            partial = shard_value_partial(shard, view.query,
                                          kernel=executor, stats=stats)
            store.put_partial(view.fingerprint, digest, partial)
            stats.shards_scanned += 1
        store.prune_partials(view.fingerprint,
                             {digest for _shard, digest in units})
        return stats

    def serve(self, name: str, executor: str = "vectorized",
              ) -> tuple[CohortResult, ExecStats, str]:
        """Refresh incrementally, then re-merge cached partials — both
        over one snapshot of the table, whose version token comes back
        beside the result: it is what a cache of the result must be
        keyed on.

        The result is identical (rows, ordering, decoded labels) to
        executing the view's query directly: partials are merged with
        the same :class:`MergeState` protocol a sharded run uses, and
        rows are built by the same :func:`build_rows`.
        """
        view = self.get(name)
        table, token, units = self._shard_units(view)
        stats = self._refresh(view, units, executor)
        store = self.store_for(view.table)
        funcs = [agg.func for agg in view.query.aggregates]
        state = MergeState(view.query)
        for _shard, digest in units:
            partial = store.get_partial(view.fingerprint, digest, funcs)
            if partial is None:  # pragma: no cover - store raced away
                raise CatalogError(
                    f"view {name!r}: partial for shard digest "
                    f"{digest[:12]}... vanished during serve")
            # collect_stats=False: the refresh above already counted
            # the work actually done; warm partials cost no scan.
            state.absorb(partial, stats, collect_stats=False)
        rows = build_rows(table, state, decoded_labels=True)
        query = view.query
        result = CohortResult(columns=query.output_columns, rows=rows,
                              n_cohort_columns=len(query.cohort_by))
        return result, stats, token
