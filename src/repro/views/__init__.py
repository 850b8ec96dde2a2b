"""Materialized cohort views with incremental per-shard refresh.

A materialized view is a named, bound cohort query whose *per-shard
value-space partials* are cached, keyed by ``(view fingerprint, shard
content digest)``. Because the writer never splits a user across chunks
and :func:`~repro.storage.sharded.append_shard` never splits a user
across shards, those partials merge exactly — including COHORTSIZE and
USERCOUNT — so serving a view is a re-merge + finalize over cached
partials, and an append only costs a scan of the *new* shard.

Layout: :mod:`repro.views.store` persists partials and view definitions
next to a sharded table's ``MANIFEST.json`` (``<dir>/VIEWS/``); a table
that does not live in a sharded directory keeps them in the engine's
partial cache;
:mod:`repro.views.catalog` owns the view registry and hands a view's
store to the scheduler's refresh / serve run, and is driven by
:class:`~repro.cohana.engine.CohanaEngine`.
"""

from repro.views.catalog import MaterializedView, ViewCatalog
from repro.views.store import (
    VIEWS_DIRNAME,
    DiskViewStore,
    decode_partial,
    encode_partial,
)

__all__ = [
    "DiskViewStore",
    "MaterializedView",
    "VIEWS_DIRNAME",
    "ViewCatalog",
    "decode_partial",
    "encode_partial",
]
