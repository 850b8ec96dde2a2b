"""one-store: a query's segment partials live in one in-memory store,
and every read is run by the engine.

A folded segment partial stays exact for as long as the segment's bytes
exist, so a store of them makes a read after an append scan only the
new shards. The query service once kept its own store of partials
beside the engine, and a caller that went straight to the engine
re-scanned every shard; a materialized view once read its persisted
partials without that store, and decoded every shard's file on each
serve. Later a view still planned and ran its own scheduler beside
the engine's, and ran serial and compressed whatever the server had
decided. Now :class:`repro.cohana.engine.CohanaEngine` builds the one
store and runs every read, a view's included; a view of a table
directory hands the engine its file store, which sits behind the
cache. This rule keeps a second store or a second read path from
growing back: a ``SegmentPartials(...)`` call anywhere under
``src/repro/`` outside ``repro/cohana/engine.py`` is a finding, and so
is a ``ChunkScheduler(...)`` call outside it and
``repro/cohana/pipeline.py`` (whose ``shard_value_partial`` scans one
segment for callers that read no table).
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule, call_name

#: The one module that builds a segment-partial store and runs reads.
_HOME = "repro/cohana/engine.py"
#: The scheduler's own module, which may also construct it.
_SCHEDULER_HOME = "repro/cohana/pipeline.py"


class OneStoreRule(Rule):
    id = "one-store"
    contract = ("no `SegmentPartials(...)` call under src/repro/ outside "
                "`repro/cohana/engine.py`, and no `ChunkScheduler(...)` "
                "call outside it and `repro/cohana/pipeline.py`: the "
                "engine runs every read, a view's included, through the "
                "one cache of segment partials (a view's files sit "
                "behind it)")
    paths = ("src/repro/*.py",)

    def applies_to(self, relpath: str) -> bool:
        return (super().applies_to(relpath)
                and not relpath.endswith(_HOME))

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        name = (call_name(node) or "").split(".")[-1]
        if name == "SegmentPartials":
            ctx.report(self, node, (
                "a second segment-partial store; run the query through "
                "CohanaEngine.execute, whose cache every path shares"))
        elif (name == "ChunkScheduler"
              and not ctx.path.endswith(_SCHEDULER_HOME)):
            ctx.report(self, node, (
                "a second read path; run the query, or the view, "
                "through CohanaEngine.execute, which plans it, gives it "
                "its partial store and runs it under the caller's "
                "execution setting"))
