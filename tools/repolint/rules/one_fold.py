"""one-fold: partials are merged in one place, the scheduler.

A query over a sharded table, the query service and a materialized view
once each merged partials with their own loop, and the loops folded in
different orders: a view's FLOAT sums differed from the direct query's
in the last bits while both shared one result-cache key. Now
:class:`repro.cohana.pipeline.ChunkScheduler` folds every segment's
chunks and then the segments, in one order, and callers hand it a store
of segment partials instead. This rule keeps a second merge loop from
growing back: a ``MergeState(...)`` or ``.absorb(...)`` call anywhere
under ``src/repro/`` outside ``repro/cohana/pipeline.py`` is a finding.
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule, call_name

#: The one module that merges partials.
_HOME = "repro/cohana/pipeline.py"


class OneFoldRule(Rule):
    id = "one-fold"
    contract = ("no `MergeState(...)` or `.absorb(...)` call under "
                "src/repro/ outside `repro/cohana/pipeline.py`: partials "
                "are merged by the scheduler, in one fold order")
    paths = ("src/repro/*.py",)

    def applies_to(self, relpath: str) -> bool:
        return super().applies_to(relpath) and not relpath.endswith(_HOME)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        name = (call_name(node) or "").split(".")[-1]
        absorb = (isinstance(node.func, ast.Attribute)
                  and node.func.attr == "absorb")
        if name != "MergeState" and not absorb:
            return
        ctx.report(self, node, (
            "a merge loop outside the scheduler; hand "
            "ChunkScheduler(partials=...) a segment-partial store "
            "instead, so every path folds in one order"))
