"""one-store: a query's segment partials live in one in-memory store.

A folded segment partial stays exact for as long as the segment's bytes
exist, so a store of them makes a read after an append scan only the
new shards. The query service once kept its own store of partials
beside the engine, and a caller that went straight to the engine
re-scanned every shard; a materialized view once read its persisted
partials without that store, and decoded every shard's file on each
serve. Now :class:`repro.cohana.engine.CohanaEngine` builds the one
store and every query path goes through it; a view of a table directory
hands the engine its file store, which sits behind the cache. This rule
keeps another from growing back: a ``SegmentPartials(...)`` call
anywhere under ``src/repro/`` outside ``repro/cohana/engine.py`` is a
finding.
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule, call_name

#: The one module that builds a segment-partial store.
_HOME = "repro/cohana/engine.py"


class OneStoreRule(Rule):
    id = "one-store"
    contract = ("no `SegmentPartials(...)` call under src/repro/ outside "
                "`repro/cohana/engine.py`: segment partials are cached "
                "by the engine (a view's files sit behind that cache)")
    paths = ("src/repro/*.py",)

    def applies_to(self, relpath: str) -> bool:
        return (super().applies_to(relpath)
                and not relpath.endswith(_HOME))

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if (call_name(node) or "").split(".")[-1] != "SegmentPartials":
            return
        ctx.report(self, node, (
            "a second segment-partial store; run the query through "
            "CohanaEngine.execute or CohanaEngine.partial_store, whose "
            "cache every path shares"))
