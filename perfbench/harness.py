"""What every workload shares: the op recorder, the workload interface
and the nine end-to-end metrics computed from a finished run."""

from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.service import result_digest

from perfbench import END_TO_END, stats
from perfbench.data import Op, canonical_reads, op_list_hash
from perfbench.readpath import traced_read
from perfbench.trace import NO_TRACE

#: A full-size run never has fewer timed rounds than this (noise rules).
MIN_ROUNDS = 12
SMOKE_ROUNDS = 3

#: A run whose rounds take this many times ``--seconds`` stops at the
#: next round boundary, so a slow host cannot run into the driver's
#: per-run limit; the record says ``truncated``.
OVERRUN_FACTOR = 3.0

@dataclass
class OpRow:
    """One timed op as recorded."""

    round: int
    cls: str
    template: str
    seconds: float
    ok: bool = True
    digest: str | None = None
    #: The op's root span in a traced round.
    span: object = None


class Ops:
    """Records the timed ops of a run and the exact counters.

    A failing op (an exception, a non-200, a wrong digest found later
    by the check) is recorded with ``ok=False`` and never aborts the
    run: it counts against ``ok_ops_share`` and the exit code.
    """

    def __init__(self) -> None:
        self.rows: list[OpRow] = []
        self.round_seconds: list[float] = []
        self.counters: Counter[str] = Counter()
        self.round = -1

    def timed(self, op: Op, fn, tracer=NO_TRACE):
        """Time ``fn()`` as one op; returns ``(row, value)`` with
        ``value`` None when the op raised."""
        value = None
        ok = True
        with tracer.span("bench.client.op", cls=op.cls,
                         template=op.template,
                         round=self.round) as span:
            start = time.perf_counter()
            try:
                value = fn()
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
            seconds = time.perf_counter() - start
        row = OpRow(self.round, op.cls, op.template, seconds, ok,
                    span=span)
        self.rows.append(row)
        return row, value

    def timed_read(self, op: Op, fn, tracer=NO_TRACE) -> None:
        """:meth:`timed` for an in-process read: ``fn()`` returns
        ``(result, stats)``, which are booked when it succeeded."""
        row, answer = self.timed(op, fn, tracer)
        if answer is not None:
            result, stats = answer
            self.read_done(row, result_digest(result), stats)

    def reclass(self, row: OpRow, cls: str) -> None:
        """File ``row`` under ``cls`` once the answer says which class
        it was (an HTTP read is light only if it hit the cache)."""
        row.cls = cls
        if row.span is not None:
            row.span.attrs["cls"] = cls

    def read_done(self, row: OpRow, digest: str, stats) -> None:
        """Book one answered read: its digest and what it scanned.
        A cache hit executed nothing, so it adds no scan counters."""
        row.digest = digest
        if row.round < 0:
            return
        self.counters["reads"] += 1
        if stats.cache_disposition == "hit":
            self.counters["cache_hits"] += 1
            return
        self.counters["reads_executed"] += 1
        self.counters["rows_scanned"] += stats.rows_scanned
        self.counters["chunks_total"] += stats.chunks_total
        self.counters["chunks_pruned"] += stats.chunks_pruned
        self.counters["chunks_pruned_zone"] += stats.chunks_pruned_zone

    # -- reading --------------------------------------------------------------

    def timed_rows(self) -> list[OpRow]:
        """Rows of the timed rounds (the warm-up round is -1)."""
        return [r for r in self.rows if r.round >= 0]

    def by_round(self, cls: str) -> list[list[float]]:
        """Latencies of class ``cls``, one list per timed round."""
        rounds: dict[int, list[float]] = {}
        for row in self.timed_rows():
            if row.cls == cls and row.ok:
                rounds.setdefault(row.round, []).append(row.seconds)
        return [rounds[r] for r in sorted(rounds)]

    def class_ms(self, cls: str) -> float:
        """The class metric: fast-half mean of the round means."""
        return stats.fast_half_mean(
            [sum(r) / len(r) for r in self.by_round(cls)]) * 1e3

    def ops_per_second(self) -> float:
        """Ops per round over the fast-half mean of the rounds' walls
        (every round of a workload has the same ops)."""
        per_round = len(self.timed_rows()) / len(self.round_seconds)
        return per_round / stats.fast_half_mean(self.round_seconds)

    def samples(self, cls: str) -> list[float]:
        return [s for r in self.by_round(cls) for s in r]


@dataclass
class Check:
    """One correctness comparison of the check phase."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Facts:
    """End-of-run readings a workload reports about its own state."""

    peak_rss_mb: float
    table_bytes: int
    table_rows: int
    extra: dict = field(default_factory=dict)


class Workload:
    """One workload: sizes and op list from the seed, then set-up,
    rounds, facts, check, tear-down.

    Subclasses set ``name``, ``rounds_per_second`` (full size, this
    box) and implement the five methods; ``self.rounds`` and
    ``self.warmup`` are the op lists.
    """

    name = ""
    rounds_per_second = 1.0

    def __init__(self, seed: int, size: str, seconds: float):
        self.seed = seed
        self.size = size
        self.n_rounds = (SMOKE_ROUNDS if size == "smoke" else max(
            MIN_ROUNDS, round(seconds * self.rounds_per_second)))
        self.warmup: list[Op] = []
        self.rounds: list[list[Op]] = []

    def sizes(self) -> dict:
        """The sizes the run record states."""
        raise NotImplementedError

    def setup(self, workdir: Path) -> None:
        """Generate data, write files, start servers, run the warm-up
        round. Everything the set-up leaves behind is under
        ``workdir``."""
        raise NotImplementedError

    def run_round(self, round_ops: list[Op], ops: Ops, tracer) -> None:
        raise NotImplementedError

    def facts(self) -> Facts:
        raise NotImplementedError

    def check(self, ops: Ops) -> list[Check]:
        """Compare answers across paths and against the oracle."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def check_engine(self):
        """An in-process engine over the workload's table."""
        return self.engine

    def paired_rounds(self, pairs: int) -> list[list[Op]]:
        """The rounds of a traced run: ``pairs`` pairs, the second
        round of a pair doing the reads of the first so that one can
        run traced and the other not. Each round keeps its own writes
        (a batch can be appended once)."""
        rounds = []
        for index in range(2 * pairs):
            own = iter([op for op in self.rounds[index]
                        if op.cls == "write"])
            rounds.append([next(own) if op.cls == "write" else op
                           for op in self.rounds[index - index % 2]])
        return rounds

    def trace_counters(self, tracer) -> None:
        """Pool the workload's own end-of-run counters into a traced
        run (bytes written, a server's ``/stats``)."""

    def check_traced(self) -> list[Check]:
        """The decomposed read path of the traced run must return the
        digest ``engine.query`` returns, for every template."""
        engine = self.check_engine()
        checks = []
        for op in canonical_reads():
            taken_apart, _ = traced_read(engine, op.text, NO_TRACE)
            whole = engine.query(op.text)
            checks.append(Check(
                f"{op.template} decomposed path",
                result_digest(taken_apart) == result_digest(whole)))
        return checks

    def op_hash(self) -> str:
        return op_list_hash([self.warmup, *self.rounds])


def run_rounds(workload: Workload, ops: Ops, seconds: float,
               tracer_for=lambda r: NO_TRACE) -> bool:
    """Run the timed rounds; returns True when the overrun guard cut
    the run short."""
    budget = seconds * OVERRUN_FACTOR
    for index, round_ops in enumerate(workload.rounds):
        if (workload.size == "full" and index >= SMOKE_ROUNDS
                and sum(ops.round_seconds) > budget):
            return True
        gc.collect()
        ops.round = index
        start = time.perf_counter()
        workload.run_round(round_ops, ops, tracer_for(index))
        ops.round_seconds.append(time.perf_counter() - start)
    return False


def repeated_digest_checks(ops: Ops, templates: set[str]) -> list[Check]:
    """A template without parameters over a table that does not change
    must answer every round with the same digest."""
    checks = []
    for template in sorted(templates):
        digests = {r.digest for r in ops.rows
                   if r.template == template and r.ok}
        checks.append(Check(f"{template} repeats", len(digests) == 1,
                            f"{len(digests)} distinct digests"))
    return checks


def end_to_end(ops: Ops, setup_seconds: list[float], facts: Facts,
               checks: list[Check]) -> tuple[dict, int, int]:
    """The nine metrics plus ``(attempted, failed)``."""
    rows = ops.timed_rows()
    attempted = len(rows) + len(checks)
    failed = (sum(not r.ok for r in rows)
              + sum(not c.ok for c in checks))
    values = {
        "setup_s": statistics.median(setup_seconds),
        "light_read_ms": ops.class_ms("light"),
        "heavy_read_ms": ops.class_ms("heavy"),
        "write_ms": ops.class_ms("write"),
        "ops_per_s": ops.ops_per_second(),
        "peak_rss_mb": facts.peak_rss_mb,
        "bytes_per_row": facts.table_bytes / facts.table_rows,
        "ok_ops_share": 1.0 - failed / attempted,
        "rows_scanned_per_read": (ops.counters["rows_scanned"]
                                  / ops.counters["reads"]),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in END_TO_END.items()}
    return metrics, attempted, failed
