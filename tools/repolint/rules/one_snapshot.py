"""one-snapshot: a table and its version token come from one read.

Every registration writes a table and its version token together, under
the engine's catalog lock. Reading them back as two calls,
``engine.table(name)`` and ``engine.version_token(name)``, lets a
concurrent ``register(replace=True)`` slip in between and pair one
registration's data with another's token; whatever is then stored under
that token (a cached result, a view partial) answers for data it does
not describe. ``CohanaEngine.snapshot`` reads both under the lock. This
rule flags any function under ``src/repro/`` outside
``cohana/engine.py`` that calls both ``.table(`` and
``.version_token(``.
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule

#: The module that owns the catalog lock and may read both.
_HOME = "repro/cohana/engine.py"

#: The two reads that must not be paired by hand.
_PAIR = frozenset({"table", "version_token"})


class OneSnapshotRule(Rule):
    id = "one-snapshot"
    contract = ("no function under src/repro/ outside `cohana/engine.py` "
                "calls both `.table(` and `.version_token(`: a (table, "
                "token) pair comes from one `snapshot()`")
    paths = ("src/repro/*.py",)

    def applies_to(self, relpath: str) -> bool:
        return super().applies_to(relpath) and not relpath.endswith(_HOME)

    def begin_module(self, ctx: ModuleContext) -> None:
        self._reads: dict[ast.AST, set[str]] = {}

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        func = ctx.enclosing_function()
        if (func is not None and isinstance(node.func, ast.Attribute)
                and node.func.attr in _PAIR):
            self._reads.setdefault(func, set()).add(node.func.attr)

    def end_module(self, ctx: ModuleContext) -> None:
        for func, reads in self._reads.items():
            if reads == _PAIR:
                ctx.report(self, func, (
                    f"{func.name}() reads a table and its version token "
                    f"in two calls; take both from engine.snapshot(name)"))
