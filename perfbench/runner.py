"""One run of one workload, in the process that hosts the engine.

``python -m perfbench run`` starts this as a fresh subprocess per
workload (``python -m perfbench worker``) with the noise-rule
environment, and reads back the run record this module writes.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import asdict
from pathlib import Path

from perfbench import env, layers, stats, tour
from perfbench.harness import (
    Ops,
    Workload,
    end_to_end,
    run_rounds,
)
from perfbench.trace import NO_TRACE, Tracer
from perfbench.workloads import REGISTRY

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Pairs of rounds in a traced run: of each pair one round runs with
#: spans and one without (to state what tracing costs).
TRACED_ROUNDS = 3


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str, record_path: Path) -> dict:
    """Run one workload and write its record; returns the record."""
    workload: Workload = REGISTRY[workload_name](seed, size, seconds)
    workdir = env.OUT / "work" / f"{workload_name}-{seed}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record = {
        "schema": 1,
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "traced": trace,
        "env": env.env_block(workdir),
        "sizes": workload.sizes(),
        "rounds": workload.n_rounds,
        "op_list_hash": workload.op_hash(),
    }
    try:
        if trace:
            record.update(_traced(workload, workdir, seconds))
        else:
            record.update(_untraced(workload, workdir, seconds))
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    env.close_env(record["env"])
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def _untraced(workload: Workload, workdir: Path, seconds: float) -> dict:
    setup_seconds = []
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.teardown()
        start = time.perf_counter()
        workload.setup(workdir / f"setup{attempt}")
        setup_seconds.append(time.perf_counter() - start)
    ops = Ops()
    truncated = run_rounds(workload, ops, seconds)
    facts = workload.facts()
    checks = workload.check(ops)
    metrics, attempted, failed = end_to_end(ops, setup_seconds, facts,
                                            checks)
    return {
        "truncated": truncated,
        "setup_seconds": setup_seconds,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "failed_checks": [asdict(c) for c in checks if not c.ok],
        "failed_ops": [_row(r) for r in ops.timed_rows() if not r.ok],
        "op_counts": _op_counts(ops),
        "round_class_means_ms": {
            cls: [sum(r) / len(r) * 1e3 for r in ops.by_round(cls)]
            for cls in ("light", "heavy", "write", "maintain")},
        "round_seconds": ops.round_seconds,
        "tails": _tails(ops),
        "exact": {**dict(ops.counters),
                  "table_bytes": facts.table_bytes,
                  "table_rows": facts.table_rows, **facts.extra},
    }


def _traced(workload: Workload, workdir: Path, seconds: float) -> dict:
    """Per-layer numbers: ``TRACED_ROUNDS`` rounds with spans
    alternating with as many without, then the layer tour."""
    workload.setup(workdir / "setup")
    workload.rounds = workload.paired_rounds(
        min(TRACED_ROUNDS, len(workload.rounds) // 2))
    tracer = Tracer()
    ops = Ops()
    run_rounds(workload, ops, seconds,
               lambda index: (tracer if layers.is_traced_round(index)
                              else NO_TRACE))
    workload.trace_counters(tracer)
    checks = workload.check_traced()
    tour.run(tracer, workload.base, workdir / "tour", workload.size)
    metrics = layers.metrics(tracer, ops)
    report = layers.separation_report(workload.name, tracer, ops)
    trace_path = env.OUT / f"trace-{workload.name}.json"
    trace_path.write_text(json.dumps(tracer.as_json()) + "\n")
    failed_rows = [r for r in ops.timed_rows() if not r.ok]
    attempted = len(ops.timed_rows()) + len(checks)
    failed = len(failed_rows) + sum(not c.ok for c in checks)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "failed_checks": [asdict(c) for c in checks if not c.ok],
        "failed_ops": [_row(r) for r in failed_rows],
        "layer_separation": report,
        "trace_file": str(trace_path.relative_to(env.ROOT)),
        "op_counts": _op_counts(ops),
    }


def _tails(ops: Ops) -> dict:
    """Per class, the highest percentile with ten samples beyond it
    (diagnostic: tails are not gated, see the README)."""
    tails = {}
    for cls in ("light", "heavy", "write"):
        p, value, n = stats.supported_tail(ops.samples(cls))
        tails[cls] = {"percentile": p, "ms": value * 1e3, "samples": n}
    return tails


def _row(row) -> dict:
    return {"round": row.round, "class": row.cls,
            "template": row.template, "seconds": row.seconds}


def _op_counts(ops: Ops) -> dict[str, int]:
    counts: dict[str, int] = {}
    for row in ops.timed_rows():
        key = f"{row.cls}:{row.template}"
        counts[key] = counts.get(key, 0) + 1
    return counts

