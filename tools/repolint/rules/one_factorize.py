"""one-factorize: the storage writer and the kernels code distinct
values through one helper.

Under numpy 2, a bare ``np.unique`` on int64 takes a hash path: on a
16k-row time segment it cost 1.9 ms, where the sort behind
``np.unique(return_inverse=True)`` cost 0.1 ms and a ``bincount`` over
a small span less. The writer once paid that per chunk column for its
chunk dictionaries and zone-map distinct counts.
:func:`repro.table.activity.factorize` picks the ``bincount`` where the
span is small and the sorting ``np.unique`` otherwise, and this rule
keeps ``np.unique`` under ``src/repro/storage/`` and
``src/repro/cohana/`` inside a function named ``factorize``.
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule, call_name

#: Call targets that are numpy's unique.
_UNIQUE = frozenset({"np.unique", "numpy.unique", "unique"})

#: The one function allowed to call it.
_HOME = "factorize"


class OneFactorizeRule(Rule):
    id = "one-factorize"
    contract = ("no `np.unique` call under src/repro/storage/ or "
                "src/repro/cohana/ outside `factorize`: chunk "
                "dictionaries, zone-map counts and group keys are coded "
                "by one helper, a `bincount` over a small span or a "
                "sort")
    paths = ("src/repro/storage/*.py", "src/repro/cohana/*.py")

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        if call_name(node) not in _UNIQUE:
            return
        if _HOME in ctx.function_names():
            return
        ctx.report(self, node, (
            "np.unique outside factorize; code the values with "
            "repro.table.activity.factorize, which skips the sort on "
            "small spans and never takes numpy's hash path"))
