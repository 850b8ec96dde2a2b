"""no-global-memo: a cache belongs to an object, not to the process.

Every query over a sharded table once went through a process-wide plan
cache beside the engine's partial cache: a second lookup per shard,
keyed apart from the engine that owned the table, and still a cost on
a read whose every shard came from the engine's store. It was deleted;
each segment is now planned when it is scanned. The caches left are
the engine's partials and the service's results, each owned by the
object whose lifetime bounds it. This rule keeps a process-wide one
from growing back: an ``LRUCache(...)`` assigned outside any function
under ``src/repro/`` (at module level, or as a class attribute) is a
finding.
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule, call_name


def _builds_lru(value: ast.expr | None) -> bool:
    return (isinstance(value, ast.Call)
            and (call_name(value) or "").split(".")[-1] == "LRUCache")


class NoGlobalMemoRule(Rule):
    id = "no-global-memo"
    contract = ("no `LRUCache(...)` assigned outside a function under "
                "src/repro/: a cache is owned by an object (the engine's "
                "partials, the service's results), not by the process")
    paths = ("src/repro/*.py",)

    def visit_Assign(self, node: ast.Assign, ctx: ModuleContext) -> None:
        self._check(node, node.value, ctx)

    def visit_AnnAssign(self, node: ast.AnnAssign,
                        ctx: ModuleContext) -> None:
        self._check(node, node.value, ctx)

    def _check(self, node: ast.stmt, value: ast.expr | None,
               ctx: ModuleContext) -> None:
        if ctx.func_stack or not _builds_lru(value):
            return
        ctx.report(self, node, (
            "a process-wide cache; give it to the object that owns its "
            "lifetime (CohanaEngine, QueryService) instead"))
