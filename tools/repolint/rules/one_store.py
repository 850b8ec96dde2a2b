"""one-store: a query's segment partials live in one in-memory store.

A folded segment partial stays exact for as long as the segment's bytes
exist, so a store of them makes a read after an append scan only the
new shards. The query service once kept its own store of partials
beside the engine, and a caller that went straight to the engine
re-scanned every shard. Now :class:`repro.cohana.engine.CohanaEngine`
owns the one in-memory store and every query path goes through it;
only a materialized view keeps a second, persisted one. This rule
keeps another from growing back: a ``SegmentPartials(...)`` call
anywhere under ``src/repro/`` outside ``repro/cohana/engine.py`` and
``repro/views/catalog.py`` is a finding.
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule, call_name

#: The modules that build a segment-partial store: the engine's
#: in-memory one and a view's persisted one.
_HOMES = ("repro/cohana/engine.py", "repro/views/catalog.py")


class OneStoreRule(Rule):
    id = "one-store"
    contract = ("no `SegmentPartials(...)` call under src/repro/ outside "
                "`repro/cohana/engine.py` and `repro/views/catalog.py`: "
                "segment partials are cached by the engine (a view "
                "persists its own)")
    paths = ("src/repro/*.py",)

    def applies_to(self, relpath: str) -> bool:
        return (super().applies_to(relpath)
                and not relpath.endswith(_HOMES))

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if (call_name(node) or "").split(".")[-1] != "SegmentPartials":
            return
        ctx.report(self, node, (
            "a second segment-partial store; run the query through "
            "CohanaEngine.execute, whose partial cache every path "
            "shares"))
