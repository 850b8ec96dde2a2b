"""The materialized-view registry: definitions and partial files.

A :class:`MaterializedView` is a bound cohort query registered under a
name; :class:`ViewCatalog` (one per engine) maps names to views and
keeps their state — a table directory's views persist definitions and
partials in the :class:`DiskViewStore` next to its manifest. It runs
nothing: the engine reads a view as it reads the view's query
(:meth:`~repro.cohana.engine.CohanaEngine.execute`), always through the
view's partial store, and then calls :meth:`ViewCatalog.file_partials`.
Two reads make views cheap:

* **refresh** — only segments (shards, or a single file) whose content
  digest has no stored partial are scanned — after an append, the new
  shard; after a compaction, none, when the merged shard's partial is
  composed from its sources'. No result rows are built.
* **serve** — the same read, run to rows: the current shards' partials
  merged in segment order, as a direct query merges them.

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
from repro.cohana.pipeline import table_segments
from repro.cohort.query import CohortQuery
from repro.service.fingerprint import view_fingerprint
from repro.views.store import (
    DEFINITION_VERSION,
    VIEWS_DIRNAME,
    DiskViewStore,
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
            from text, else None. Only text-backed views over a table
            directory persist their definition (text is what makes them
            rebindable after a restart); their partials are keyed by
            fingerprint and persist either way.
    """

    name: str
    table: str
    query: CohortQuery
    fingerprint: str
    text: str | None = None


class ViewCatalog:
    """Per-engine view registry. The engine calls the registry methods
    (create, drop, attach) under its catalog lock, so views mutate with
    tables atomically. A view's reads run without it, each on the table
    and token of one :meth:`CohanaEngine.snapshot`."""

    def __init__(self, engine):
        self._engine = engine
        self._views: dict[str, MaterializedView] = {}
        #: ``(store root, view fingerprint)`` -> the live segment keys
        #: its files were last tidied for (:meth:`file_partials`).
        self._filed: dict[tuple[str, str], tuple[str, ...]] = {}

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
        store = self.store_for(view.table)
        if text is not None and store is not None:
            store.save_definition(self._definition_payload(view))
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
            if store is not None:
                store.remove_if_empty()
        return True

    def _drop_state(self, view: MaterializedView,
                    definition: bool) -> None:
        """Remove a view's store files; partials are shared by
        fingerprint, so they survive while any other view of the same
        table still uses them. A table without a directory has none:
        the engine's cache ages its partials out."""
        try:
            store = self.store_for(view.table)
        except CatalogError:
            # Table already gone from the catalog (and a sharded
            # directory's store location is derived from it) — nothing
            # reachable to clean.
            return
        if store is None:
            return
        if definition:
            store.drop_definition(view.name)
        shared = any(v.fingerprint == view.fingerprint
                     and v.table == view.table
                     for v in self._views.values())
        if not shared:
            store.drop_partials(view.fingerprint)
            self._filed.pop((str(store.root), view.fingerprint), None)

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
            if store is not None:
                store.remove_if_empty()
        return dropped

    # -- persistence ----------------------------------------------------------

    def store_for(self, table_name: str) -> DiskViewStore | None:
        """:meth:`store_at` of the table registered as ``table_name``."""
        return self.store_at(self._engine.table(table_name))

    @staticmethod
    def store_at(table) -> DiskViewStore | None:
        """The persisted view store next to a table directory's
        manifest, or None: a table without a directory keeps its view
        partials in the engine's cache and persists no definition."""
        source = getattr(table, "source_path", None)
        if source and Path(source).is_dir():
            return DiskViewStore(Path(source) / VIEWS_DIRNAME)
        return None

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
        store = self.store_for(table_name)
        attached = []
        for payload in store.load_definitions() if store else []:
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
        table, token = self._engine.snapshot(view.table)
        store = self.store_at(table)
        keys = _segment_keys(table, token)
        if store is None:
            cached = sum(self._engine.partials.peek(
                (view.fingerprint, key)) is not None for key in keys)
        else:
            cached = sum(store.has_partial(view.fingerprint, key)
                         for key in keys)
        return {
            "name": view.name,
            "table": view.table,
            "fingerprint": view.fingerprint,
            "shards_total": len(keys),
            "shards_cached": cached,
            "persisted": store is not None and view.text is not None,
        }

    def file_partials(self, store: DiskViewStore, view: MaterializedView,
                      table, token: str) -> None:
        """The file upkeep after the engine read ``view`` over
        ``table``: delete the partial files of segments the table no
        longer has (merged away, or dropped by retention), then write a
        file for each live segment that was served from memory (its
        direct query filled the cache). It runs after the read, because
        a merged shard's partial is composed from its sources'.

        The files change only when the live segments do, so the upkeep
        runs once per token and segment set (a compaction keeps the
        token): a warm serve lists no directory. Dropping the view's
        files forgets that record, so a re-created view files again."""
        key = view.fingerprint
        live = tuple(_segment_keys(table, token))
        record = (str(store.root), key)
        if self._filed.get(record) == live:
            return
        for digest in set(live) - store.prune_partials(key, set(live)):
            partial = self._engine.partials.peek((key, digest))
            if partial is not None:
                store.put_partial(key, digest, partial)
        self._filed[record] = live


def _segment_keys(table, token: str) -> list[str]:
    """The key each segment's partial is filed under (see
    :class:`~repro.cohana.pipeline.SegmentPartials`)."""
    return [segment.content_digest or token
            for segment in table_segments(table)]
