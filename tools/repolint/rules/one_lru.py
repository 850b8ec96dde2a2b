"""one-lru: every bounded memo under src/repro/ is one ``LRUCache``.

The tree once held six hand-rolled LRUs, each an ``OrderedDict`` with
its own lock, bound, ``move_to_end``/``popitem`` loop and counter
global. They now share :class:`repro.common.lru.LRUCache`: one eviction
policy, one counter shape, one place ``/stats`` reads from. This rule
keeps a seventh from appearing: an ``OrderedDict(...)`` call or a
``.popitem(last=False)`` anywhere under ``src/repro/`` outside
``repro/common/lru.py`` is a finding.
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule, call_name

#: The one module allowed to build an LRU by hand.
_HOME = "repro/common/lru.py"


def _pops_oldest(node: ast.Call) -> bool:
    """``x.popitem(last=False)`` or ``x.popitem(False)``."""
    if not (isinstance(node.func, ast.Attribute)
            and node.func.attr == "popitem"):
        return False
    last = next((kw.value for kw in node.keywords if kw.arg == "last"),
                node.args[0] if node.args else None)
    return isinstance(last, ast.Constant) and last.value is False


class OneLruRule(Rule):
    id = "one-lru"
    contract = ("no `OrderedDict(...)` call or `.popitem(last=False)` "
                "under src/repro/ outside `repro/common/lru.py`: bounded "
                "memos are a `LRUCache`")
    paths = ("src/repro/*.py",)

    def applies_to(self, relpath: str) -> bool:
        return super().applies_to(relpath) and not relpath.endswith(_HOME)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        name = call_name(node) or ""
        if name.split(".")[-1] != "OrderedDict" and not _pops_oldest(node):
            return
        ctx.report(self, node, (
            "hand-rolled LRU; use repro.common.lru.LRUCache (one "
            "eviction policy, one counter shape) instead"))
