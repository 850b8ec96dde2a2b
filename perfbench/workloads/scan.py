"""``adhoc_scan`` and ``parallel_scan``: one ``.cohana`` file, the
paper's Q1–Q8, no service in front.

Both run the same op list over the same file. ``adhoc_scan`` reads
serially — kernels, pruning and merge do nearly all the work and the
service, view, HTTP and shard code do none. ``parallel_scan`` reads
with ``jobs=2, backend="processes"``: pool start-up, pickling and the
workers' re-load of the file dominate the light reads while the heavy
reads show the real speed-up. The write (bulk-load a side table) is
identical in both: a control predicted to come out equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.cohana import CohanaEngine
from repro.datagen import scale_dataset
from repro.storage import compress

from perfbench import check, data, env
from perfbench.data import TABLE, Op
from perfbench.harness import (
    Check,
    Facts,
    Ops,
    Workload,
    repeated_digest_checks,
)
from perfbench.readpath import traced_read
from perfbench.trace import NO_TRACE

SIDE = "Side"
BULK_LOAD = Op("write", "bulk_load")


@dataclass(frozen=True)
class ScanSize:
    users_per_wave: int
    rows_per_wave: int
    scale: int
    chunk_rows: int
    side_scale: int


SIZES = {
    # 3 x 6500 x 12 = 234,000 rows in 15 chunks; the issue's 1.0M-row
    # starting point takes 3.5 s a round, four times what the driver's
    # time cap leaves (README, "Sizes").
    "full": ScanSize(users_per_wave=200, rows_per_wave=6500, scale=12,
                     chunk_rows=16384, side_scale=2),
    "smoke": ScanSize(users_per_wave=40, rows_per_wave=1200, scale=3,
                      chunk_rows=2048, side_scale=1),
}


class AdhocScan(Workload):
    name = "adhoc_scan"
    rounds_per_second = 1.5
    #: Loose options every read passes to ``engine.query_with_stats``.
    read_options: dict = {}

    def __init__(self, seed: int, size: str, seconds: float):
        super().__init__(seed, size, seconds)
        self.s = SIZES[size]
        steps = data.grid(seed, self.n_rounds, "scan")
        self.rounds = [
            data.shuffled([*data.scan_reads(step),
                           BULK_LOAD], seed, f"order{index}")
            for index, step in enumerate(steps)]
        self.warmup = [*data.canonical_reads(), BULK_LOAD]

    def sizes(self) -> dict:
        return {"base_rows": data.WAVES * self.s.rows_per_wave,
                "scale": self.s.scale,
                "rows": data.WAVES * self.s.rows_per_wave * self.s.scale,
                "chunk_rows": self.s.chunk_rows,
                "side_rows": (data.WAVES * self.s.rows_per_wave
                              * self.s.side_scale),
                "clients": 1, "jobs": self.read_options.get("jobs", 1)}

    # -- set-up ---------------------------------------------------------------

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.base = data.base_table(self.seed, self.s.users_per_wave,
                                    self.s.rows_per_wave)
        self.side = scale_dataset(self.base, self.s.side_scale)
        self.path = workdir / "table.cohana"
        self.side_path = workdir / "side.cohana"
        build = CohanaEngine()
        build.create_table(TABLE, scale_dataset(self.base, self.s.scale),
                           target_chunk_rows=self.s.chunk_rows)
        build.save_table(TABLE, self.path)
        self.engine = CohanaEngine()
        self.engine.load_table(TABLE, self.path)
        self.run_round(self.warmup, Ops(), NO_TRACE)

    def teardown(self) -> None:
        self.engine = None

    # -- rounds ---------------------------------------------------------------

    def run_round(self, round_ops: list[Op], ops: Ops, tracer) -> None:
        for op in round_ops:
            if op.cls == "write":
                ops.timed(op, lambda: self.bulk_load(tracer), tracer)
            else:
                ops.timed_read(op, lambda: self.read(op.text, tracer),
                               tracer)

    def read(self, text: str, tracer):
        if tracer.enabled:
            return traced_read(self.engine, text, tracer)
        return self.engine.query_with_stats(text, **self.read_options)

    def bulk_load(self, tracer) -> None:
        """Compress the side table, save it, load it back: after this
        the next read of ``Side`` sees the new file."""
        engine = self.engine
        if not tracer.enabled:
            engine.create_table(SIDE, self.side, replace=True,
                                target_chunk_rows=self.s.chunk_rows)
            engine.save_table(SIDE, self.side_path)
            engine.load_table(SIDE, self.side_path, replace=True)
            return
        with tracer.span("storage.writer.compress",
                         rows=len(self.side)):
            compressed = compress(self.side,
                                  target_chunk_rows=self.s.chunk_rows)
        engine.register(SIDE, compressed, replace=True)
        with tracer.span("storage.format.save") as span:
            span.attrs["bytes"] = engine.save_table(SIDE, self.side_path)
        with tracer.span("storage.format.load"):
            engine.load_table(SIDE, self.side_path, replace=True)

    # -- end of run -----------------------------------------------------------

    def facts(self) -> Facts:
        table = self.engine.table(TABLE)
        return Facts(
            peak_rss_mb=(env.self_peak_rss_mb()
                         + env.largest_child_peak_rss_mb()),
            table_bytes=self.path.stat().st_size,
            table_rows=table.n_rows,
            extra={"chunks": table.n_chunks})

    def reference(self, text: str):
        """The same read through another path: the decoded scan
        mode."""
        return self.engine.query(text, scan_mode="decoded")

    def check(self, ops: Ops) -> list[Check]:
        reads = [op for op in self.rounds[0] if op.cls != "write"]
        timed = [row.digest for row in ops.rows
                 if row.round == 0 and row.cls != "write"]
        return [
            *check.oracle_and_law(reads, self.base, self.s.chunk_rows,
                                  self.s.scale, timed),
            *check.parity("other path", reads, timed, self.reference),
            *repeated_digest_checks(ops, {"Q1", "Q3"}),
        ]


class ParallelScan(AdhocScan):
    name = "parallel_scan"
    read_options = {"jobs": 2, "backend": "processes"}

    def read(self, text: str, tracer):
        with tracer.span("cohana.pipeline.pool_scan"):
            return self.engine.query_with_stats(text,
                                                **self.read_options)

    def run_round(self, round_ops: list[Op], ops: Ops, tracer) -> None:
        super().run_round(round_ops, ops, tracer)
        if tracer.enabled:
            # The scan work of the same reads, serial and taken apart:
            # what the report measures the pool's overhead against.
            for op in round_ops:
                if op.cls != "write":
                    with tracer.span("bench.client.reference",
                                     cls=op.cls):
                        traced_read(self.engine, op.text, tracer)

    def reference(self, text: str):
        """The same read on the serial backend."""
        return self.engine.query(text)

