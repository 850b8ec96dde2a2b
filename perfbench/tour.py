"""The layer tour: a fixed script that calls every layer's public entry
points once or a few times, each under a span.

A workload exercises some layers and bypasses others — that is its
point — but a traced run has to report every per-layer metric. The
tour closes the gap: after the workload's own traced rounds it drives
every layer on tables built from the workload's base data, under the
same span names the workloads use, so that every metric of
:mod:`perfbench.layers` has spans to be computed from. A metric is
always computed over *all* spans of its name in the traced run: the
workload's, when it exercises the layer, pooled with the tour's.

Sizes are the same whatever the workload, so tour-only metrics are
comparable across the four traced runs.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.cohana import CohanaEngine
from repro.datagen import GameConfig, generate, scale_dataset
from repro.service import (
    QueryService,
    result_fingerprint,
    result_payload,
)
from repro.service.protocol import render_response
from repro.storage import (
    append_shard,
    compress,
    gc_shards,
    read_manifest,
    serialize,
)
from repro.table import ActivityTable
from repro.workloads import queries

from perfbench import data, layers
from perfbench.data import DAY, TABLE
from perfbench.readpath import traced_read
from perfbench.trace import Tracer
from perfbench.workloads.ingest import traced_compact
from perfbench.workloads.serve import Session, cold_read, csv_text

VIEW = "tour_view"


@dataclass(frozen=True)
class TourSize:
    base_rows: int
    scale: int
    chunk_rows: int
    shards: int
    generate_users: int
    hits: int
    cold_reads: int


SIZES = {
    # 6000 x 12 = 72,000 rows in 5 chunks; 6 (+2) shards of 6000 rows.
    # 136 cold reads overflow the server's 128-entry result cache.
    "full": TourSize(base_rows=6000, scale=12, chunk_rows=16384,
                     shards=6, generate_users=40, hits=30,
                     cold_reads=136),
    "smoke": TourSize(base_rows=1000, scale=3, chunk_rows=1024,
                      shards=3, generate_users=10, hits=5,
                      cold_reads=136),
}


def run(tracer: Tracer, base: ActivityTable, workdir: Path,
        size: str) -> None:
    """Drive every layer once; all results land in ``tracer``."""
    s = SIZES[size]
    workdir.mkdir(parents=True, exist_ok=True)
    small = base.slice(0, s.base_rows)
    reads = data.canonical_reads()
    heavy = queries.q1(TABLE)

    # -- datagen ----------------------------------------------------------------
    with tracer.span("datagen.generate") as span:
        span.attrs["rows"] = len(generate(
            GameConfig(n_users=s.generate_users, seed=1)))
    with tracer.span("datagen.scale", rows=len(small) * s.scale):
        big = scale_dataset(small, s.scale)

    # -- storage.writer / storage.format ----------------------------------------
    with tracer.span("storage.writer.compress", rows=len(big)):
        compressed = compress(big, target_chunk_rows=s.chunk_rows)
    with tracer.span("storage.format.serialize") as span:
        payload = serialize(compressed)
        span.attrs["bytes"] = len(payload)
    tracer.count("format_bytes", len(payload))
    tracer.count("format_rows", len(big))
    path = workdir / "tour.cohana"
    path.write_bytes(payload)
    engine = CohanaEngine()
    with tracer.span("storage.format.load"):
        engine.load_table(TABLE, path)

    # -- the read path, taken apart ----------------------------------------------
    for op in reads:
        with tracer.span("tour.read", template=op.template):
            traced_read(engine, op.text, tracer)

    # -- kernels, by scan mode ----------------------------------------------------
    in_memory = CohanaEngine()
    in_memory.create_table(TABLE, small, target_chunk_rows=s.chunk_rows)
    for text in (heavy, queries.q3(TABLE)):
        for name, where, options in (
                ("cohana.vectorized.scan", engine,
                 {"scan_mode": "decoded"}),
                ("cohana.compressed.scan", engine,
                 {"scan_mode": "compressed"}),
                ("cohana.iterator_executor.scan", in_memory,
                 {"executor": "iterator"})):
            with tracer.span(name) as span:
                _, stats = where.query_with_stats(text, **options)
                span.attrs["rows"] = stats.rows_scanned

    # -- backends -----------------------------------------------------------------
    for _ in range(3):
        for name, options in (
                ("backend.serial", {}),
                ("backend.processes1", {"jobs": 1,
                                        "backend": "processes"}),
                ("backend.processes2", {"jobs": 2,
                                        "backend": "processes"}),
                ("backend.threads2", {"jobs": 2, "backend": "threads"})):
            with tracer.span(name):
                engine.query(heavy, **options)

    # -- storage.sharded ----------------------------------------------------------
    directory = workdir / "sharded"

    def batch(index: int) -> ActivityTable:
        return data.renamed(small, f"t{index:02d}-", index * DAY)

    written = 0
    for index in range(s.shards):
        with tracer.span("storage.sharded.append_shard",
                         shards_before=index):
            entry = append_shard(directory, batch(index),
                                 target_chunk_rows=s.chunk_rows)
        written += entry["n_bytes"]
    sharded = CohanaEngine()
    with tracer.span("storage.sharded.load_sharded"):
        sharded.load_table(TABLE, directory)
    for op in reads[:3]:
        with tracer.span("tour.read", template=op.template):
            traced_read(sharded, op.text, tracer)

    # The same rows as one file: what the fan-out over shards costs.
    single = CohanaEngine()
    single.create_table(
        TABLE, data.concat(batch(index) for index in range(s.shards)),
        target_chunk_rows=s.chunk_rows)
    single.save_table(TABLE, workdir / "single.cohana")
    single.load_table(TABLE, workdir / "single.cohana", replace=True)
    for _ in range(4):
        with tracer.span("fanout.sharded"):
            sharded.query(heavy)
        with tracer.span("fanout.single"):
            single.query(heavy)

    # -- views ----------------------------------------------------------------------
    sharded.create_view(VIEW, heavy)
    for _ in range(3):
        with tracer.span("views.catalog.serve"):
            sharded.serve_view(VIEW)
    with tracer.span("storage.sharded.append_shard",
                     shards_before=s.shards):
        entry = append_shard(directory, batch(s.shards),
                             target_chunk_rows=s.chunk_rows)
    written += entry["n_bytes"]
    with tracer.span("storage.sharded.load_sharded"):
        sharded.refresh_table(TABLE, refresh_views=False)
    with tracer.span("views.catalog.refresh"):
        stats = sharded.refresh_view(VIEW)
    tracer.count("view_refreshes")
    tracer.count("view_shards_scanned", stats.shards_scanned)

    # -- service, in process (before compaction: the appended shard
    #    moves the table version, which is what invalidates) ---------------------
    _service(tracer, engine, sharded, directory, batch(s.shards + 1),
             reads, s)
    written += read_manifest(directory)["shards"][-1]["n_bytes"]

    # -- storage.compaction -------------------------------------------------------
    def some_reads(name: str) -> None:
        with tracer.span(name):
            for op in reads[:3]:
                sharded.query(op.text)

    some_reads("compaction.reads_before")
    written += traced_compact(directory, tracer)
    sharded.refresh_table(TABLE)
    with tracer.span("storage.compaction.gc"):
        gc_shards(directory)
    some_reads("compaction.reads_after")
    tracer.count("sharded_bytes_written", written)
    tracer.count("sharded_bytes_live", sum(
        e["n_bytes"] for e in read_manifest(directory)["shards"]))

    # -- service.http -------------------------------------------------------------
    _http(tracer, directory, workdir, small, reads, s)


def _service(tracer: Tracer, engine: CohanaEngine, sharded: CohanaEngine,
             directory: Path, fresh: ActivityTable, reads, s: TourSize,
             ) -> None:
    """Misses, hits, fingerprints and payloads through an in-process
    ``QueryService``; evictions from a 4-entry cache; invalidations
    from an append under a cached result."""
    service = QueryService(engine)
    other = QueryService(engine)
    token = engine.version_token(TABLE)

    def direct(text: str):
        with tracer.span("engine.direct", text=text):
            return engine.query_with_stats(text)

    def miss(through: QueryService, text: str) -> None:
        with tracer.span("service.service.miss", text=text):
            through.query_with_stats(text)

    for op in reads:
        # Warm, then direct / miss / miss / direct: a run is a little
        # faster than the one before it, and this order favours
        # neither side of the difference.
        engine.query(op.text)
        result, stats = direct(op.text)
        miss(service, op.text)
        miss(other, op.text)
        direct(op.text)
        for _ in range(s.hits):
            with tracer.span("service.service.hit"):
                service.query_with_stats(op.text)
        bound = engine.parse(op.text)
        for _ in range(s.hits):
            with tracer.span("service.fingerprint.fingerprint"):
                result_fingerprint(bound, token)
        for _ in range(s.hits):
            with tracer.span("service.protocol.payload"):
                render_response(200, result_payload(result, stats))
    layers.count_cache(tracer, service.stats_snapshot())

    tiny = QueryService(engine, result_entries=4)
    for _ in range(2):
        for op in reads:
            tiny.query(op.text)
    layers.count_cache(tracer, tiny.stats_snapshot())

    moving = QueryService(sharded)
    for op in reads[:4]:
        moving.query(op.text)
    append_shard(directory, fresh, target_chunk_rows=s.chunk_rows)
    sharded.refresh_table(TABLE)
    for op in reads[:4]:
        moving.query(op.text)
    layers.count_cache(tracer, moving.stats_snapshot())


def _http(tracer: Tracer, directory: Path, workdir: Path,
          small: ActivityTable, reads, s: TourSize) -> None:
    """A short serve session: misses, quiet hits, hits beside two
    ingests, and enough cold reads to overflow the result cache."""
    batches = [csv_text(data.renamed(small.slice(0, len(small) // 4),
                                     f"h{i}-", (s.shards + 3 + i) * DAY),
                        workdir / "batch.csv") for i in range(2)]
    session = Session(directory, workdir / "tmp")
    try:
        for op in reads:
            session.read(op.text, tracer)
        for _ in range(s.hits):
            for op in reads:
                session.read(op.text, tracer)

        def ingest_both() -> None:
            for text in batches:
                session.ingest(text, tracer, time.perf_counter())

        with ThreadPoolExecutor(max_workers=1) as pool:
            writer = pool.submit(ingest_both)
            while not writer.done():
                for op in reads:
                    session.read(op.text, tracer)
            writer.result()
        for index in range(s.cold_reads):
            session.read(cold_read(index).text, tracer)
        layers.count_server(tracer, session.stats())
    finally:
        session.close()
