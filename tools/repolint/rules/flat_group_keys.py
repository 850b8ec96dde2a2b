"""flat-group-keys: the COHANA kernels group without sorting.

``np.unique(..., axis=0)`` groups rows by viewing them as structured
void records and sorting those — on perfbench's ``adhoc_scan`` table
that sort cost more than the scan, decode and pruning the paper
describes, put together. The kernels instead fold each group-by column
into one dense ``int64`` key (``key * n_c + code_c``), and
``factorize`` codes such keys with a ``bincount`` over their small
span, falling back to the sort only for wide spans. This rule keeps
``np.unique`` — row-wise or 1-D — from creeping back into a hot path
under ``src/repro/cohana/``: ``factorize`` is its one caller there.
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule, call_name

#: Call targets that are numpy's unique.
_UNIQUE = frozenset({"np.unique", "numpy.unique", "unique"})

#: The one function allowed to call it: the sort-free grouping helper,
#: whose fallback branch it is.
_HOME = "factorize"


class FlatGroupKeysRule(Rule):
    id = "flat-group-keys"
    contract = ("no `np.unique` under src/repro/cohana/ outside "
                "`factorize`: group-bys fold their columns into one dense "
                "1-D int64 key and code it without a sort")
    paths = ("src/repro/cohana/*.py",)

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if call_name(node) not in _UNIQUE:
            return
        if _HOME in ctx.function_names():
            return
        ctx.report(self, node, (
            "np.unique sorts its input; group through "
            "repro.cohana.pipeline.factorize (or unique_rows for "
            "several columns), which codes small-span keys without a "
            "sort"))
