"""The rule battery: one module per enforced contract.

``ALL_RULES`` is the canonical ordered registry — ``--list-rules``,
the JSON report, the ARCHITECTURE.md rule table and the self-check
fixtures all key off the ids here. Ids are stable: never renumber,
rename, or reuse one (suppression comments in the tree refer to them).
"""

from __future__ import annotations

from tools.repolint.core import SUPPRESSION_RULE, Rule
from tools.repolint.rules.atomic_publish import AtomicPublishRule
from tools.repolint.rules.crash_seam import CrashSeamRule
from tools.repolint.rules.determinism import DeterminismRule
from tools.repolint.rules.executor_lifecycle import ExecutorLifecycleRule
from tools.repolint.rules.flat_group_keys import FlatGroupKeysRule
from tools.repolint.rules.fsync_replace import FsyncBeforeReplaceRule
from tools.repolint.rules.kernel_purity import KernelPurityRule
from tools.repolint.rules.lock_discipline import LockDisciplineRule
from tools.repolint.rules.lock_order import LockOrderRule


def all_rules() -> list[Rule]:
    """Fresh rule instances for one engine run (rules carry per-run
    state, so instances are never shared between runs)."""
    return [
        AtomicPublishRule(),
        LockDisciplineRule(),
        LockOrderRule(),
        KernelPurityRule(),
        CrashSeamRule(),
        ExecutorLifecycleRule(),
        DeterminismRule(),
        FsyncBeforeReplaceRule(),
        FlatGroupKeysRule(),
        SUPPRESSION_RULE.__class__(),
    ]
