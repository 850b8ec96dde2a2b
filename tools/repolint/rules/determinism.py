"""determinism: fingerprint/digest modules never consult clock or RNG.

Fingerprints key the service result cache; digests key shard
verification and segment partials. Their whole value is
that equal inputs hash equal **forever** — across processes,
machines, and reruns. One ``time.time()`` or ``uuid4()`` folded into
a canonical form silently degrades every cache to miss-always (or
worse: makes two processes disagree about what bytes are valid).
This rule bans the nondeterminism sources outright in the modules
that define identity.
"""

from __future__ import annotations

import ast

from tools.repolint.core import ModuleContext, Rule, call_name

#: Module imports that carry ambient nondeterminism.
_BANNED_IMPORTS = ("time", "random", "uuid", "secrets")

#: Dotted calls that read the clock / RNG even without a banned
#: top-level import (e.g. via datetime or os).
_BANNED_CALLS = frozenset({
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "os.urandom", "time.time", "time.monotonic", "time.time_ns",
    "random.random", "uuid.uuid4", "uuid.uuid1",
})


class DeterminismRule(Rule):
    id = "determinism"
    contract = ("identity-defining modules (service/fingerprint, "
                "storage/format, storage/zonemap, storage/sharded) "
                "import no time/random/uuid/secrets and call no "
                "clock/RNG source")
    paths = ("src/repro/service/fingerprint.py",
             "src/repro/storage/format.py",
             "src/repro/storage/zonemap.py",
             "src/repro/storage/sharded.py")

    def visit_Import(self, node: ast.Import, ctx: ModuleContext) -> None:
        for alias in node.names:
            self._check(node, alias.name, ctx)

    def visit_ImportFrom(self, node: ast.ImportFrom,
                         ctx: ModuleContext) -> None:
        if node.module is not None and node.level == 0:
            self._check(node, node.module, ctx)

    def _check(self, node: ast.AST, module: str,
               ctx: ModuleContext) -> None:
        root = module.split(".")[0]
        if root in _BANNED_IMPORTS:
            ctx.report(self, node, (
                f"{module!r} imported in an identity-defining module "
                f"— fingerprints and digests must hash equal inputs "
                f"equal forever; take timestamps as arguments instead "
                f"of reading the clock"))

    def visit_Call(self, node: ast.Call, ctx: ModuleContext) -> None:
        name = call_name(node)
        if name in _BANNED_CALLS:
            ctx.report(self, node, (
                f"{name}() inside an identity-defining module — "
                f"clock/RNG reads make equal inputs hash unequal"))
