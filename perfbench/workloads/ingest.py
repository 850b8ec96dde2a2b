"""``ingest_lifecycle``: a sharded table that is written, read,
compacted and aged out, round after round.

A round is one full cycle of the table's life: :data:`CYCLE` times
append one batch of fresh users as a new shard and make it visible
(``append_shard`` + ``refresh_table``), reading the table — directly
and through a materialized view kept warm — after every append; then
merge the cycle's small shards into one (``compact``), drop the oldest
merged shard (``prune_retention``), switch to the new generation and
collect the dead files (``gc_shards``). The table therefore holds the
same :data:`LIVE` batches at the start of every round: rounds are
comparable, and the metrics do not depend on how far a run got.

``storage.sharded``, ``storage.writer``, ``storage.compaction`` and
``views`` do most of the work, and the same storage layer serves the
writes beside the reads: cheaper appends that fragment the table, or a
compaction that leaves reads slower, show up in the other class.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.cohana import CohanaEngine
from repro.service import result_digest
from repro.storage import (
    append_shard,
    compact,
    gc_shards,
    prune_retention,
    read_manifest,
)
from repro.workloads import queries

from perfbench import check, data, env
from perfbench.data import DAY, TABLE, Op
from perfbench.harness import Check, Facts, Ops, Workload
from perfbench.readpath import traced_read
from perfbench.trace import NO_TRACE

VIEW = "shop_gold"
#: Appends per round, and batches the table holds between rounds.
CYCLE = 4
LIVE = 16
MAINTAIN = Op("maintain", "compact_and_retain")


@dataclass(frozen=True)
class IngestSize:
    batch_users: int
    batch_rows: int
    chunk_rows: int
    oracle_rows: int


SIZES = {
    "full": IngestSize(batch_users=200, batch_rows=6000,
                       chunk_rows=16384, oracle_rows=2000),
    "smoke": IngestSize(batch_users=40, batch_rows=1000,
                        chunk_rows=2048, oracle_rows=500),
}


def traced_compact(directory: Path, tracer, **options) -> int:
    """``compact(directory, **options)`` under a span; returns the
    bytes of the merged shard it wrote."""
    with tracer.span("storage.compaction.compact") as span:
        outcome = compact(directory, **options)
    merged = next(entry["n_bytes"]
                  for entry in read_manifest(directory)["shards"]
                  if entry["path"] == outcome.new_shard)
    if span is not None:
        span.attrs["bytes"] = merged
    return merged


class IngestLifecycle(Workload):
    name = "ingest_lifecycle"
    rounds_per_second = 1.0

    def __init__(self, seed: int, size: str, seconds: float):
        super().__init__(seed, size, seconds)
        self.s = SIZES[size]
        lags = data.grid(seed, self.n_rounds, "ingest")
        self.warmup = self.cycle(LIVE, 0, "warmup")
        self.rounds = [
            self.cycle(LIVE + CYCLE * (index + 1), lag, f"order{index}")
            for index, lag in enumerate(lags)]

    def cycle(self, first_batch: int, lag: int, salt: str) -> list[Op]:
        """One round: :data:`CYCLE` appends, light reads after each,
        heavy reads after every second, then the maintenance.

        Batch ``b`` starts on day ``b``, so a window ending near the
        newest batch's day asks for the most recent arrivals: its cost
        follows the table, and the seeded ``lag`` (six hours a step)
        moves it without changing what it costs. ``arg`` of a read is
        the append it follows.
        """
        ops: list[Op] = []
        for step in range(CYCLE):
            newest = first_batch + step
            w = data.window((newest - 5) * 24 + 6 * lag)
            ops.append(Op("write", "append", arg=newest))
            reads = [Op("light", "Q2", queries.q2(TABLE, w), step),
                     Op("light", "Q4", queries.q4(TABLE, w), step),
                     Op("light", "view", arg=step)]
            if step % 2:
                reads += [Op("heavy", "Q1", queries.q1(TABLE), step),
                          Op("heavy", "Q3", queries.q3(TABLE), step)]
            ops += data.shuffled(reads, self.seed, f"{salt}:{step}")
        return [*ops, MAINTAIN]

    def sizes(self) -> dict:
        return {"batch_rows": self.s.batch_rows,
                "appends_per_round": CYCLE, "live_batches": LIVE,
                "rows_between_rounds": LIVE * self.s.batch_rows,
                "rows_before_maintenance":
                (LIVE + CYCLE) * self.s.batch_rows,
                "chunk_rows": self.s.chunk_rows, "clients": 1}

    def batch(self, index: int):
        """Batch ``index``: the generated batch under fresh user names,
        one day later per batch (new users arrive later)."""
        return data.renamed(self.base, f"b{index:03d}-", index * DAY)

    # -- set-up ---------------------------------------------------------------

    def setup(self, workdir: Path) -> None:
        self.base = data.generated_rows(self.seed, self.s.batch_users,
                                        self.s.batch_rows)
        self.last_time = int(self.base.times.max())
        self.directory = workdir / "table"
        self.bytes_written = 0
        self.newest = -1
        for index in range(LIVE):
            self.append(index)
            if index % CYCLE == CYCLE - 1:
                self.merge_small_shards(NO_TRACE)
        self.engine = CohanaEngine()
        self.engine.load_table(TABLE, self.directory)
        self.engine.create_view(VIEW, queries.q3(TABLE))
        self.run_round(self.warmup, Ops(), NO_TRACE)

    def append(self, index: int) -> None:
        entry = append_shard(self.directory, self.batch(index),
                             target_chunk_rows=self.s.chunk_rows)
        self.newest = index
        self.bytes_written += entry["n_bytes"]

    def merge_small_shards(self, tracer) -> None:
        """Compact the single-batch shards into one."""
        self.bytes_written += traced_compact(
            self.directory, tracer, small_rows=self.s.batch_rows)

    def teardown(self) -> None:
        self.engine = None

    # -- rounds ---------------------------------------------------------------

    def run_round(self, round_ops: list[Op], ops: Ops, tracer) -> None:
        for op in round_ops:
            if op.template == "append":
                ops.timed(op, lambda: self.write(op.arg, tracer), tracer)
            elif op.cls == "maintain":
                ops.timed(op, lambda: self.maintain(tracer), tracer)
            else:
                ops.timed_read(op, lambda: self.read(op, tracer), tracer)

    def write(self, index: int, tracer) -> None:
        """Append batch ``index`` and make it visible to the next read
        (of the table and of the view)."""
        with tracer.span("storage.sharded.append_shard",
                         shards_before=len(self.engine.table(TABLE)
                                           .shards)):
            self.append(index)
        if not tracer.enabled:
            self.engine.refresh_table(TABLE)
            return
        with tracer.span("storage.sharded.load_sharded"):
            self.engine.refresh_table(TABLE, refresh_views=False)
        with tracer.span("views.catalog.refresh"):
            stats = self.engine.refresh_view(VIEW)
        tracer.count("view_refreshes")
        tracer.count("view_shards_scanned", stats.shards_scanned)

    def read(self, op: Op, tracer):
        if op.template == "view":
            with tracer.span("views.catalog.serve"):
                return self.engine.serve_view(VIEW)
        if tracer.enabled:
            return traced_read(self.engine, op.text, tracer)
        return self.engine.query_with_stats(op.text)

    def maintain(self, tracer) -> None:
        """End of a cycle: merge its small shards, age out the oldest
        merged shard, switch the engine (and the view) to the new
        generation, collect the files no reader pins any more."""
        self.merge_small_shards(tracer)
        cutoff = self.last_time + (self.newest - LIVE) * DAY + 1
        with tracer.span("storage.compaction.retention"):
            prune_retention(self.directory, older_than=cutoff, gc=False)
        if tracer.enabled:
            with tracer.span("storage.sharded.load_sharded"):
                self.engine.refresh_table(TABLE, refresh_views=False)
            # The merged shard is new to the view: it is scanned whole.
            with tracer.span("views.catalog.rebuild"):
                self.engine.refresh_view(VIEW)
        else:
            self.engine.refresh_table(TABLE)
        with tracer.span("storage.compaction.gc"):
            gc_shards(self.directory)

    # -- end of run -----------------------------------------------------------

    def trace_counters(self, tracer) -> None:
        tracer.count("sharded_bytes_written", self.bytes_written)
        tracer.count("sharded_bytes_live", self.facts().table_bytes)

    def facts(self) -> Facts:
        shards = read_manifest(self.directory)["shards"]
        return Facts(
            peak_rss_mb=(env.self_peak_rss_mb()
                         + env.largest_child_peak_rss_mb()),
            table_bytes=sum(entry["n_bytes"] for entry in shards),
            table_rows=sum(entry["n_rows"] for entry in shards),
            extra={"shards": len(shards),
                   "bytes_written": self.bytes_written,
                   "files_on_disk": len(list(
                       self.directory.glob("shard-*.cohana")))})

    def check(self, ops: Ops) -> list[Check]:
        # The view and the direct Q3 that follow the same append read
        # the same table.
        states: dict[tuple, dict[str, str]] = {}
        for index in range(len(ops.round_seconds)):
            rows = [r for r in ops.rows if r.round == index]
            for op, row in zip(self.rounds[index], rows):
                if op.template in ("Q3", "view"):
                    states.setdefault((index, op.arg), {})[op.template] \
                        = row.digest
        pairs = [s for s in states.values() if len(s) == 2]
        checks = [Check("view equals direct Q3 after every append",
                        bool(pairs) and all(s["Q3"] == s["view"]
                                            for s in pairs))]
        # The sharded path against one in-memory table of the rows that
        # are live now (the timed reads saw the table in motion, so the
        # last round's reads are asked once more).
        single = check.base_engine(
            data.concat(self.batch(index) for index in
                        range(self.newest - LIVE + 1, self.newest + 1)),
            self.s.chunk_rows)
        reads = list({op.text: op for op in self.rounds[-1] if op.text}
                     .values())
        now = [result_digest(self.engine.query(op.text)) for op in reads]
        checks += check.parity("single table", reads, now, single.query)
        view, _ = self.engine.serve_view(VIEW)
        checks += check.parity("single table",
                               [Op("light", "view", queries.q3(TABLE))],
                               [result_digest(view)], single.query)
        # The oracle, through the sharded path, on a table it can
        # afford: the first rows of two batches.
        small = [self.batch(i).slice(0, self.s.oracle_rows)
                 for i in range(2)]
        directory = self.directory.parent / "oracle"
        for part in small:
            append_shard(directory, part,
                         target_chunk_rows=self.s.chunk_rows)
        engine = CohanaEngine()
        engine.load_table(TABLE, directory)
        canonical = data.canonical_reads()
        sharded = [result_digest(engine.query(op.text))
                   for op in canonical]
        checks += check.oracle(canonical, small[0].concat(small[1]),
                               sharded)
        return checks
