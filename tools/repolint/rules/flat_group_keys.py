"""flat-group-keys: the COHANA kernels group on 1-D integer keys only.

``np.unique(..., axis=0)`` groups rows by viewing them as structured
void records and sorting those — on perfbench's ``adhoc_scan`` table
that sort cost more than the scan, decode and pruning the paper
describes, put together. The kernels instead fold each group-by column into one
dense ``int64`` key (``key * n_c + code_c``) and group on that. This
rule keeps the row-wise form from creeping back under
``src/repro/cohana/``.
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule, call_name

#: Call targets that are numpy's unique.
_UNIQUE = frozenset({"np.unique", "numpy.unique", "unique"})

#: ``np.unique(ar, return_index, return_inverse, return_counts, axis)``.
_AXIS_POSITION = 4


class FlatGroupKeysRule(Rule):
    id = "flat-group-keys"
    contract = ("no `np.unique(..., axis=...)` under src/repro/cohana/: "
                "group-bys fold their columns into one dense 1-D int64 "
                "key instead of sorting rows")
    paths = ("src/repro/cohana/*.py",)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if call_name(node) not in _UNIQUE:
            return
        axis = next((kw.value for kw in node.keywords if kw.arg == "axis"),
                    None)
        if axis is None and len(node.args) > _AXIS_POSITION:
            axis = node.args[_AXIS_POSITION]
        if axis is None or (isinstance(axis, ast.Constant)
                            and axis.value is None):
            return
        ctx.report(self, node, (
            "row-wise np.unique sorts rows as structured records; fold "
            "the columns into one dense int64 key and group on that "
            "(see repro.cohana.vectorized.unique_rows)"))
