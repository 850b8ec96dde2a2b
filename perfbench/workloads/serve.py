"""``serve_under_ingest``: reads over HTTP while batches are ingested.

A ``python -m repro serve <dir> --http`` subprocess serves a sharded
table. One reader connection runs closed-loop; one writer connection
posts one ``/ingest`` CSV batch per round at the same time. Reads are
classified by the response's ``cache_disposition``:

* light — cache hits on a hot set of :data:`HOT` queries, which fits
  the service's 128-entry result cache;
* heavy — everything that executed: the hot set's first read after
  each ingest (the table version moved, so every cached result is
  stale) and cold queries that never repeat, so no cache can hold
  them.

``service.cache``, ``service.fingerprint``, ``service.protocol`` and
``service.http`` carry the light reads and the kernels carry almost
nothing. The reader and the ingest share the server's interpreter lock
and thread pool, so ``write_ms`` is ``/ingest`` latency *under read
load*.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from repro.cohana import CohanaEngine
from repro.storage import append_shard, read_manifest
from repro.table import write_csv
from repro.workloads import queries

from perfbench import check, data, env, layers
from perfbench.data import DAY, TABLE, Op
from perfbench.harness import Check, Facts, Ops, Workload
from perfbench.trace import NO_TRACE

#: Hot-set size: well inside the 128-entry result cache.
HOT = 24
#: Passes over the hot set per round, and never-repeated reads per round.
PASSES = 6
COLD = 8


class Server:
    """One ``repro serve --http`` subprocess on a free port."""

    def __init__(self, directory: Path, tmp: Path):
        tmp.mkdir(parents=True, exist_ok=True)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(directory),
             "--http", "127.0.0.1:0"],
            stderr=subprocess.PIPE, text=True, env=env.child_env(tmp))
        line = self.process.stderr.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"server announced no port: {line!r}")
        self.port = int(match.group(1))

    def connect(self) -> "Client":
        return Client(self.port)

    def stop(self) -> None:
        """Drain (SIGTERM) and wait; kill if the drain hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stderr.close()


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=120)

    def call(self, method: str, path: str, body: dict | None = None):
        """``(payload, response bytes)``; anything but 200 raises."""
        self.connection.request(
            method, path,
            body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        raw = response.read()
        if response.status != 200:
            raise RuntimeError(f"{method} {path}: {response.status} "
                               f"{raw[:200]!r}")
        return json.loads(raw), len(raw)

    def close(self) -> None:
        self.connection.close()


class Session:
    """A server subprocess and the two connections that talk to it: a
    closed-loop reader and a writer that ingests beside it."""

    def __init__(self, directory: Path, tmp: Path):
        self.server = Server(directory, tmp)
        self.reader = self.server.connect()
        self.writer = self.server.connect()
        self.ingesting = False

    def read(self, text: str, tracer):
        """``POST /query``; returns ``(payload, stats)``."""
        during = self.ingesting
        with tracer.span("service.http.request",
                         during_ingest=during) as span:
            payload, size = self.reader.call("POST", "/query",
                                             {"query": text})
        stats = SimpleNamespace(**payload["stats"])
        if span is not None:
            span.attrs["disposition"] = stats.cache_disposition
            tracer.sample("service.http.admission_wait_s",
                          stats.admission_wait_seconds)
            tracer.sample("service.protocol.response_bytes", size)
        return payload, stats

    def ingest(self, csv_text: str, tracer, due: float) -> dict:
        """``POST /ingest`` on the writer connection; ``due`` is when
        the writer was meant to send (``perf_counter`` seconds)."""
        body = {"csv": csv_text, "table": TABLE}
        tracer.sample("bench.client.writer_send_lag_s",
                      time.perf_counter() - due)
        self.ingesting = True
        try:
            with tracer.span("service.http.ingest"):
                return self.writer.call("POST", "/ingest", body)[0]
        finally:
            self.ingesting = False

    def stats(self) -> dict:
        return self.reader.call("GET", "/stats")[0]

    def close(self) -> None:
        self.reader.close()
        self.writer.close()
        self.server.stop()


def csv_text(table, scratch: Path) -> str:
    """``table`` as the CSV document ``/ingest`` takes."""
    write_csv(table, scratch)
    return scratch.read_text()


@dataclass(frozen=True)
class ServeSize:
    batch_users: int
    batch_rows: int
    seed_shards: int
    ingest_rows: int
    chunk_rows: int
    oracle_rows: int


SIZES = {
    "full": ServeSize(batch_users=200, batch_rows=6000, seed_shards=8,
                      ingest_rows=500, chunk_rows=16384,
                      oracle_rows=2000),
    "smoke": ServeSize(batch_users=40, batch_rows=1000, seed_shards=3,
                       ingest_rows=200, chunk_rows=2048,
                       oracle_rows=500),
}


def window_of(offset: int, days: int) -> tuple[str, str]:
    return (queries.day_offset(data.START, offset),
            queries.day_offset(data.START, offset + days))


def hot_set(seed: int) -> list[Op]:
    """:data:`HOT` distinct queries: Q1 and Q3 once (they take no
    parameter) and the six parametrised templates with seeded windows
    and age limits."""
    rng = random.Random(f"{seed}:hot")
    offsets = rng.sample(range(40), HOT)
    ops = [Op("read", "Q1", queries.q1(TABLE)),
           Op("read", "Q3", queries.q3(TABLE))]
    for i in range(HOT - 2):
        template = ("Q2", "Q4", "Q5", "Q6", "Q7", "Q8")[i % 6]
        ops.append(Op("read", template,
                      parametrised(template, offsets[i], 7, 4 + i)))
    return ops


def parametrised(template: str, offset: int, days: int, g: int) -> str:
    w = window_of(offset, days)
    if template == "Q2":
        return queries.q2(TABLE, w)
    if template == "Q4":
        return queries.q4(TABLE, w)
    if template == "Q5":
        return queries.q5(*w, table=TABLE)
    if template == "Q6":
        return queries.q6(*w, table=TABLE)
    if template == "Q7":
        return queries.q7(g, TABLE)
    return queries.q8(g, TABLE)


def cold_read(index: int) -> Op:
    """The ``index``-th cold read; no two share a text (window widths
    of 8 days and up and age limits of 40 and up never occur in the
    hot set)."""
    template = ("Q2", "Q5", "Q6", "Q4", "Q7", "Q8")[index % 6]
    nth = index // 6
    return Op("read", template,
              parametrised(template, nth % 50, 8 + nth // 50, 40 + nth))


class ServeUnderIngest(Workload):
    name = "serve_under_ingest"
    rounds_per_second = 1.0

    def __init__(self, seed: int, size: str, seconds: float):
        super().__init__(seed, size, seconds)
        self.s = SIZES[size]
        self.hot = hot_set(seed)
        self.rounds = [self.round_ops(index)
                       for index in range(self.n_rounds)]
        self.warmup = self.round_ops(-1)

    def round_ops(self, index: int) -> list[Op]:
        """One ingest, :data:`PASSES` passes over the hot set in a
        seeded order, :data:`COLD` cold reads at seeded positions.

        The first two passes stay free of cold reads: the ingest runs
        beside them, and what it competes with (a stream of cache
        hits) must not depend on where the seed put a cold read."""
        rng = random.Random(f"{self.seed}:round{index}")
        reads: list[Op] = []
        for _ in range(PASSES):
            reads += rng.sample(self.hot, len(self.hot))
        first = (index + 1) * COLD
        for cold in range(first, first + COLD):
            reads.insert(rng.randrange(2 * HOT, len(reads) + 1),
                         cold_read(cold))
        return [Op("write", "ingest", arg=index + 1), *reads]

    def sizes(self) -> dict:
        rows = self.s.seed_shards * self.s.batch_rows
        return {"rows_at_start": rows + self.s.ingest_rows,
                "rows_at_end": rows
                + (self.n_rounds + 1) * self.s.ingest_rows,
                "ingest_rows": self.s.ingest_rows, "hot_set": HOT,
                "passes": PASSES, "cold_per_round": COLD,
                "result_cache_entries": 128, "chunk_rows":
                self.s.chunk_rows, "clients": 2}

    # -- set-up ---------------------------------------------------------------

    def setup(self, workdir: Path) -> None:
        self.base = data.generated_rows(self.seed, self.s.batch_users,
                                        self.s.batch_rows)
        self.workdir = workdir
        self.directory = workdir / "table"
        for index in range(self.s.seed_shards):
            append_shard(self.directory,
                         data.renamed(self.base, f"b{index:03d}-",
                                      index * DAY),
                         target_chunk_rows=self.s.chunk_rows)
        small = self.base.slice(0, self.s.ingest_rows)
        self.csv = [
            csv_text(data.renamed(small, f"i{index:03d}-",
                                  (self.s.seed_shards + index) * DAY),
                     workdir / "batch.csv")
            for index in range(self.n_rounds + 1)]
        self.session = Session(self.directory, workdir / "tmp")
        self.run_round(self.warmup, Ops(), NO_TRACE)

    def teardown(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()
            self.session = None

    # -- rounds ---------------------------------------------------------------

    def run_round(self, round_ops: list[Op], ops: Ops, tracer) -> None:
        ingest, *reads = round_ops
        due = time.perf_counter()
        writer = threading.Thread(target=lambda: ops.timed(
            ingest, lambda: self.session.ingest(self.csv[ingest.arg],
                                                tracer, due), tracer))
        writer.start()
        for op in reads:
            row, answer = ops.timed(
                op, lambda: self.session.read(op.text, tracer), tracer)
            if answer is not None:
                payload, stats = answer
                ops.reclass(row, "light" if stats.cache_disposition
                            == "hit" else "heavy")
                ops.read_done(row, payload["digest"], stats)
        writer.join(timeout=120)
        if writer.is_alive():
            raise RuntimeError("the ingest did not finish")

    # -- end of run -----------------------------------------------------------

    def facts(self) -> Facts:
        shards = read_manifest(self.directory)["shards"]
        self.server_stats = self.session.stats()
        return Facts(
            peak_rss_mb=env.peak_rss_mb_of(self.session.server.process.pid),
            table_bytes=sum(entry["n_bytes"] for entry in shards),
            table_rows=sum(entry["n_rows"] for entry in shards),
            extra={"shards": len(shards),
                   "server": self.server_stats})

    def trace_counters(self, tracer) -> None:
        layers.count_server(tracer, self.session.stats())

    def check_engine(self) -> CohanaEngine:
        engine = CohanaEngine()
        engine.load_table(TABLE, self.directory)
        return engine

    def check(self, ops: Ops) -> list[Check]:
        http_counters = self.server_stats["http"]
        balanced = (http_counters["received"]
                    == http_counters["completed"]
                    + http_counters["errors"] + http_counters["shed"])
        checks = [Check("/stats balances", balanced,
                        json.dumps(http_counters))]
        # HTTP against an in-process engine over the same directory.
        # The timed reads of a round straddle its ingest, so the last
        # round's distinct queries are read once more now that the
        # table stands still (the hot ones come from the cache the
        # timed reads filled).
        last = len(ops.round_seconds) - 1
        reads = list({op.text: op for op in self.rounds[last][1:]}
                     .values())
        served = [self.session.read(op.text, NO_TRACE)[0]["digest"]
                  for op in reads]
        checks += check.parity("in-process", reads, served,
                               self.check_engine().query)
        # The oracle, over HTTP, on a table it can afford.
        small = [data.renamed(self.base.slice(0, self.s.oracle_rows),
                              f"o{i}-", i * DAY) for i in range(2)]
        directory = self.workdir / "oracle"
        for part in small:
            append_shard(directory, part,
                         target_chunk_rows=self.s.chunk_rows)
        server = Server(directory, self.workdir / "tmp")
        try:
            client = server.connect()
            canonical = data.canonical_reads()
            served = [client.call("POST", "/query",
                                  {"query": op.text})[0]["digest"]
                      for op in canonical]
            client.close()
        finally:
            server.stop()
        checks += check.oracle(canonical, small[0].concat(small[1]),
                               served)
        return checks
