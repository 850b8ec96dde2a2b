"""flat-group-keys: the COHANA kernels group without sorting rows.

``np.unique(..., axis=0)`` groups rows by viewing them as structured
void records and sorting those — on perfbench's ``adhoc_scan`` table
that sort cost more than the scan, decode and pruning the paper
describes, put together. The kernels instead fold each group-by column
into one dense ``int64`` key (``key * n_c + code_c``) and code it with
``factorize``. This rule keeps row-wise grouping from creeping back
into a hot path under ``src/repro/cohana/``: an ``np.unique`` call
given an ``axis`` (keyword or fifth positional argument) is a finding.
``one-factorize`` keeps 1-D ``np.unique`` inside ``factorize``.
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule, call_name

#: Call targets that are numpy's unique.
_UNIQUE = frozenset({"np.unique", "numpy.unique", "unique"})


def _axis(node: ast.Call) -> ast.expr | None:
    """The ``axis`` argument of an ``np.unique`` call, if given."""
    for keyword in node.keywords:
        if keyword.arg == "axis":
            return keyword.value
    return node.args[4] if len(node.args) >= 5 else None


class FlatGroupKeysRule(Rule):
    id = "flat-group-keys"
    contract = ("no row-wise `np.unique(..., axis=...)` under "
                "src/repro/cohana/: group-bys fold their columns into "
                "one dense 1-D int64 key and code it without a sort")
    paths = ("src/repro/cohana/*.py",)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if call_name(node) not in _UNIQUE:
            return
        axis = _axis(node)
        if axis is None or (isinstance(axis, ast.Constant)
                            and axis.value is None):
            return
        ctx.report(self, node, (
            "np.unique over rows sorts them as void records; fold the "
            "columns into one 1-D key with "
            "repro.cohana.vectorized.unique_rows"))
