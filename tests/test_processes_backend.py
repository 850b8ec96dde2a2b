"""Process-parallel scan backend + mmap format tests.

Covers the PR-3 surface: backend parity (serial/threads/processes at
jobs 1/2/4) over an on-disk table, deterministic cleanup on kernel
failure, explicit backends honoured at jobs=1, the format round-trip
and its golden bytes, and lazy (mmap) vs eager reader equality — plus the
contracts of the persistent worker pool (``repro.cohana.workers``):
digest-keyed worker tables, sizing, failure containment, worker death,
parent death and the registry-change restart.

``COHANA_TEST_JOBS`` (used by the CI matrix) overrides the largest
worker count the parity sweep exercises.
"""

import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.errors import ExecutionError, StorageError
from repro.cohana import ChunkScheduler, CohanaEngine, ExecutionConfig
from repro.cohana import workers
from repro.common.lru import LRUCache
from repro.cohana.pipeline import ChunkKernel, KERNELS, \
    register_kernel
from repro.datagen import GameConfig, generate
from repro.service import QueryService
from repro.service.protocol import result_digest
from repro.schema import ActivitySchema, LogicalType
from repro.storage import (
    append_shard,
    compress,
    deserialize,
    load,
    save,
    serialize,
)
from repro.table import ActivityTable
from repro.workloads import MAIN_QUERIES

from helpers import (
    kill_own_process_scan,
    make_game_schema,
    make_table1,
    worker_pids,
)

TABLE = "GameActions"

#: The default sweep stays cheap (1 and 2 workers); the CI matrix leg
#: sets COHANA_TEST_JOBS=4 to extend it to real 4-way parallelism.
ENV_JOBS = int(os.environ.get("COHANA_TEST_JOBS", "0") or "0")
JOBS = tuple(sorted({1, 2} | ({ENV_JOBS} if ENV_JOBS > 1 else set())))


def _game_table():
    return generate(GameConfig(n_users=57, seed=7))


@pytest.fixture(scope="module")
def cohana_path(tmp_path_factory):
    """The game dataset compressed and saved as a .cohana file."""
    path = tmp_path_factory.mktemp("proc") / "game.cohana"
    save(compress(_game_table(), target_chunk_rows=512), path)
    return path


@pytest.fixture(scope="module")
def disk_engine(cohana_path):
    eng = CohanaEngine()
    eng.load_table(TABLE, cohana_path)
    return eng


class TestBackendParity:
    """Identical rows from every backend at every worker count."""

    @pytest.mark.parametrize("qname", sorted(MAIN_QUERIES))
    @pytest.mark.parametrize("backend",
                             ("serial", "threads", "processes"))
    def test_workload_rows_match_serial(self, disk_engine, backend,
                                        qname):
        text = MAIN_QUERIES[qname](TABLE)
        base = disk_engine.query(text, jobs=1, backend="serial")
        jobs = max(JOBS)
        got = disk_engine.query(text, jobs=jobs, backend=backend)
        assert got.rows == base.rows
        assert got.columns == base.columns

    @pytest.mark.parametrize("jobs", JOBS)
    def test_processes_stats_match_serial(self, disk_engine, jobs):
        text = MAIN_QUERIES["Q1"](TABLE)
        _, serial = disk_engine.query_with_stats(text, backend="serial")
        _, procs = disk_engine.query_with_stats(text, jobs=jobs,
                                                backend="processes")
        assert procs == serial
        assert procs.chunks_scanned > 1

    def test_iterator_kernel_through_processes(self, disk_engine):
        text = MAIN_QUERIES["Q1"](TABLE)
        base = disk_engine.query(text, executor="iterator")
        got = disk_engine.query(text, executor="iterator", jobs=2,
                                backend="processes")
        assert got.rows == base.rows


class TestDeterministicFold:
    """Partials are folded once, in task order, on every backend — so
    FLOAT sums do not depend on which task finished first, and INT sums
    stay exact across partials."""

    @staticmethod
    def float_game() -> ActivityTable:
        """The game table with ``gold`` as FLOAT: gold / 7 + 0.1."""
        game = generate(GameConfig(n_users=300, seed=7))
        schema = ActivitySchema(columns=tuple(
            replace(c, ltype=LogicalType.FLOAT) if c.name == "gold"
            else c for c in game.schema.columns))
        gold = game.schema.index_of("gold")
        rows = [(*r[:gold], r[gold] / 7 + 0.1, *r[gold + 1:])
                for r in game.to_rows()]
        return ActivityTable.from_rows(schema, rows)

    @pytest.fixture(scope="class")
    def float_engine(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("float") / "float.cohana"
        save(compress(self.float_game(), target_chunk_rows=256), path)
        eng = CohanaEngine()
        eng.load_table(TABLE, path)
        assert eng.table(TABLE).n_chunks > 30
        return eng

    def test_float_aggregates_are_bit_identical_across_backends(
            self, float_engine):
        text = (f"SELECT country, COHORTSIZE, AGE, Sum(gold), Avg(gold) "
                f"FROM {TABLE} BIRTH FROM action = \"launch\" "
                f"COHORT BY country")
        base = float_engine.query(text)
        assert any(isinstance(row[-1], float) for row in base.rows)
        for _ in range(5):
            for backend in ("threads", "processes"):
                for jobs in (2, 4):
                    got = float_engine.query(text, jobs=jobs,
                                             backend=backend)
                    assert result_digest(got) == result_digest(base), (
                        backend, jobs)

    @pytest.mark.parametrize("backend", ("serial", "threads",
                                         "processes"))
    def test_float_sharded_answer_is_one_digest_on_every_path(
            self, tmp_path, backend):
        """A 4-shard FLOAT table gives one digest through the engine
        after an append (three shards' partials reused), a view and the
        service — miss, invalidated with four reused, and hit. Each path
        folds every shard's chunks into one partial and then the shards
        in order, so FLOAT sums agree to the last bit and one cached
        result may answer all."""
        table = self.float_game().sorted_by_primary_key()
        blocks = list(table.user_blocks())
        batches = [table.slice(blocks[i][1], blocks[i + 74][2])
                   for i in range(0, 300, 75)]
        sdir = tmp_path / "shards"
        for batch in batches[:3]:
            append_shard(sdir, batch, target_chunk_rows=256)
        text = (f"SELECT country, COHORTSIZE, AGE, Sum(gold), Avg(gold) "
                f"FROM {TABLE} BIRTH FROM action = \"launch\" "
                f"COHORT BY country")
        options = {} if backend == "serial" else {"jobs": 2,
                                                   "backend": backend}
        eng = CohanaEngine()
        eng.load_table(TABLE, sdir)
        svc = QueryService(eng, **options)
        svc.query(text)
        append_shard(sdir, batches[3], target_chunk_rows=256)
        eng.refresh_table(TABLE)
        assert len(eng.table(TABLE).shards) == 4

        # The engine's partial cache serves the direct read too: it
        # scans only the appended shard and reuses the other three.
        direct, stats = eng.query_with_stats(text, **options)
        assert stats.shards_scanned == 1
        assert svc.stats_snapshot()["partials"]["hits"] == 3
        assert any(isinstance(row[-1], float) for row in direct.rows)
        digests = {"engine": result_digest(direct)}
        for want in ("invalidated", "hit"):
            got, stats = svc.query_with_stats(text)
            assert stats.cache_disposition == want
            digests[want] = result_digest(got)
        # ... and the invalidated read reuses all four.
        assert svc.stats_snapshot()["partials"]["hits"] == 3 + 4
        got, stats = QueryService(eng, **options).query_with_stats(text)
        assert stats.cache_disposition == "miss"
        digests["miss"] = result_digest(got)
        eng.create_view("f", text)
        digests["view"] = result_digest(eng.serve_view("f")[0])
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.parametrize("big, n_users", [(2 ** 62, 2),
                                              (2 ** 62 - 1, 3)])
    def test_int_sums_stay_exact_across_partials(self, tmp_path, big,
                                                 n_users):
        """One user per chunk, per shard and per processes run, each
        adding ``big`` to one bucket: the total is exact past int64.
        (A chunk's 2**62 sum is already object-typed; 2**62 - 1 is not,
        so only the fold's own guard keeps three of them exact.)"""
        users = [f"u{i}" for i in range(n_users)]
        rows = [(user, "2013-05-19", "launch", "dwarf", "AU", 0)
                for user in users]
        rows += [(user, "2013-05-20", "shop", "dwarf", "AU", big)
                 for user in users]
        table = ActivityTable.from_rows(make_game_schema(), rows)
        text = ("SELECT country, COHORTSIZE, AGE, Sum(gold), Avg(gold) "
                "FROM D BIRTH FROM action = \"launch\" COHORT BY country")
        total = n_users * big
        expected = [("AU", n_users, 1, total, total / n_users)]
        assert total >= 2 ** 63

        path = tmp_path / "d.cohana"
        save(compress(table, target_chunk_rows=1), path)
        sdir = tmp_path / "shards"
        for user in users:
            append_shard(sdir, ActivityTable.from_rows(
                table.schema, [r for r in rows if r[0] == user]))
        for layout in (path, sdir):
            eng = CohanaEngine()
            eng.load_table("D", layout)
            counts = eng.table("D")
            assert (counts.n_chunks if layout == path
                    else len(counts.shards)) == n_users
            for executor in ("vectorized", "iterator"):
                for options in ({}, {"jobs": 1, "backend": "processes"}):
                    # An empty partial cache: each run scans.
                    eng.partials.clear()
                    got, stats = eng.query_with_stats(
                        text, executor=executor, **options)
                    assert got.rows == expected
                    assert stats.chunks_total == counts.n_chunks


class TestBackendResolution:
    def test_auto_prefers_processes_for_on_disk_tables(self,
                                                       disk_engine):
        table = disk_engine.table(TABLE)
        assert ExecutionConfig.resolve(jobs=4, table=table).backend \
            == "processes"
        assert ExecutionConfig.resolve(jobs=1, table=table).backend \
            == "serial"

    def test_auto_falls_back_to_threads_in_memory(self):
        eng = CohanaEngine()
        table = eng.create_table("D", make_table1())
        assert ExecutionConfig.resolve(jobs=4, table=table).backend \
            == "threads"

    def test_processes_needs_source_path(self):
        eng = CohanaEngine()
        eng.create_table("D", make_table1(), target_chunk_rows=4)
        q = ('SELECT country, COHORTSIZE, AGE, UserCount() FROM D '
             'BIRTH FROM action = "launch" COHORT BY country')
        with pytest.raises(ExecutionError, match="source|path|file"):
            eng.query(q, jobs=2, backend="processes")

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_explicit_backend_honoured_at_jobs_1(self, disk_engine,
                                                 where_kernel, backend):
        """jobs=1 must not silently fall back to the serial loop when a
        parallel backend was requested explicitly: every task runs off
        the calling thread (threads) or off the calling process
        (processes)."""
        text = MAIN_QUERIES["Q1"](TABLE)
        base = disk_engine.query(text, backend="serial")
        got = disk_engine.query(text, jobs=1, backend=backend,
                                executor="where")
        assert got.rows == base.rows
        here = (os.getpid(), threading.get_ident())
        ran = where_kernel()
        assert ran and here not in ran
        same_process = {pid == here[0] for pid, _ in ran}
        assert same_process == {backend == "threads"}

    def test_service_runs_a_view_refresh_on_the_worker_pool(
            self, tmp_path, where_kernel):
        """A view served through a ``QueryService`` built with
        ``jobs=2, backend='processes'`` scans its new shards on the
        worker pool, as the service's direct queries do — not serially
        in the calling process."""
        ordered = _game_table().sorted_by_primary_key()
        blocks = list(ordered.user_blocks())
        half = len(blocks) // 2
        for part in (blocks[:half], blocks[half:]):
            append_shard(tmp_path / "shards",
                         ordered.slice(part[0][1], part[-1][2]),
                         target_chunk_rows=64)
        eng = CohanaEngine()
        eng.load_table(TABLE, tmp_path / "shards")
        text = MAIN_QUERIES["Q1"](TABLE)
        eng.create_view("v", text, refresh=False)
        service = QueryService(eng, executor="where", jobs=2,
                               backend="processes")
        result, stats = service.serve_view("v")
        assert stats.cache_disposition == "refresh"
        assert stats.shards_scanned == 2
        ran = where_kernel()
        assert ran and {pid for pid, _ in ran}.isdisjoint({os.getpid()})
        assert result.rows == eng.query(text).rows


# -- error injection ---------------------------------------------------------

_BOOM_CALLS = []


def _boom_scan(table, chunk, plan):
    _BOOM_CALLS.append(chunk.index)
    raise ExecutionError("injected kernel failure")


@pytest.fixture
def boom_kernel():
    register_kernel(ChunkKernel(name="boom", scan=_boom_scan))
    _BOOM_CALLS.clear()
    try:
        yield "boom"
    finally:
        del KERNELS["boom"]


class TestErrorCleanup:
    def test_threads_cancels_queued_tasks(self, disk_engine,
                                          boom_kernel):
        """With one worker, the first task's failure must cancel every
        queued task before the error propagates — no stragglers keep
        scanning after the query has failed."""
        table = disk_engine.table(TABLE)
        plan = disk_engine.plan(MAIN_QUERIES["Q1"](TABLE))
        config = ExecutionConfig(backend="threads", jobs=1)
        scheduler = ChunkScheduler(table, plan, boom_kernel, config)
        assert len(scheduler.tasks()) > 1
        with pytest.raises(ExecutionError, match="injected"):
            scheduler.run()
        assert len(_BOOM_CALLS) == 1

    def test_serial_propagates(self, disk_engine, boom_kernel):
        with pytest.raises(ExecutionError, match="injected"):
            disk_engine.query(MAIN_QUERIES["Q1"](TABLE),
                              executor="boom")
        assert len(_BOOM_CALLS) == 1

    def test_processes_propagates_worker_errors(self, disk_engine,
                                                warm_pool, boom_kernel):
        """Kernel exceptions cross the process boundary intact. The
        pool was warm before ``boom`` was registered: only because a
        registration stops the workers does the query fork ones that
        know the kernel."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork inheritance of the test kernel")
        with pytest.raises(ExecutionError, match="injected"):
            disk_engine.query(MAIN_QUERIES["Q1"](TABLE),
                              executor="boom", jobs=2,
                              backend="processes")

    def test_processes_failure_leaves_the_pool_up(self, disk_engine,
                                                  boom_kernel):
        """A raising kernel fails its own query only: the next query
        runs on the same worker processes."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork inheritance of the test kernel")
        text = MAIN_QUERIES["Q1"](TABLE)
        base = disk_engine.query(text)
        assert disk_engine.query(text, jobs=2,
                                 backend="processes").rows == base.rows
        before = worker_pids()
        assert len(before) == 2
        with pytest.raises(ExecutionError, match="injected"):
            disk_engine.query(text, executor="boom", jobs=2,
                              backend="processes")
        assert disk_engine.query(text, jobs=2,
                                 backend="processes").rows == base.rows
        assert worker_pids() == before


# -- the persistent worker pool ----------------------------------------------


@pytest.fixture
def warm_pool(disk_engine):
    """Two live workers that have already served a query."""
    workers.shutdown()
    disk_engine.query(MAIN_QUERIES["Q1"](TABLE), jobs=2,
                      backend="processes")
    assert len(worker_pids()) == 2
    yield
    workers.shutdown()


@pytest.fixture
def where_kernel(tmp_path):
    """The vectorized kernel, also logging where each task ran; calling
    the fixture value returns the logged ``(pid, thread id)`` pairs."""
    log = tmp_path / "where.log"
    inner = KERNELS["vectorized"].scan

    def scan(table, chunk, plan):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {threading.get_ident()}\n")
        return inner(table, chunk, plan)

    register_kernel(ChunkKernel(name="where", scan=scan))
    try:
        yield lambda: [tuple(map(int, line.split()))
                       for line in log.read_text().splitlines()]
    finally:
        del KERNELS["where"]


@pytest.fixture
def suicide_kernel():
    register_kernel(ChunkKernel(name="suicide",
                                scan=kill_own_process_scan))
    try:
        yield "suicide"
    finally:
        del KERNELS["suicide"]


def _digests(engine, table, **options):
    return [result_digest(engine.query(MAIN_QUERIES[name](table),
                                       **options))
            for name in sorted(MAIN_QUERIES)]


class TestPersistentPool:
    def test_serial_and_threads_start_no_process(self, disk_engine):
        workers.shutdown()
        text = MAIN_QUERIES["Q1"](TABLE)
        disk_engine.query(text)
        disk_engine.query(text, jobs=2, backend="threads")
        assert worker_pids() == set()

    def test_workers_outlive_the_query(self, disk_engine, warm_pool):
        before = worker_pids()
        for name in sorted(MAIN_QUERIES):
            disk_engine.query(MAIN_QUERIES[name](TABLE), jobs=2,
                              backend="processes")
        assert worker_pids() == before

    def test_pool_grows_to_largest_jobs_and_never_shrinks(
            self, disk_engine, warm_pool):
        text = MAIN_QUERIES["Q1"](TABLE)
        two = worker_pids()
        disk_engine.query(text, jobs=1, backend="processes")
        assert worker_pids() == two
        disk_engine.query(text, jobs=3, backend="processes")
        three = worker_pids()
        assert len(three) == 3
        disk_engine.query(text, jobs=2, backend="processes")
        assert worker_pids() == three

    def test_jobs_bounds_the_query_not_the_pool(self, disk_engine,
                                                warm_pool, where_kernel):
        """On a two-worker pool a jobs=1 query has one task in flight:
        it never needs the second worker, and every task still ran in
        a worker."""
        text = MAIN_QUERIES["Q1"](TABLE)
        disk_engine.query(text, jobs=2, backend="processes",
                          executor="where")
        assert len(worker_pids()) == 2
        base = disk_engine.query(text)
        got = disk_engine.query(text, jobs=1, backend="processes",
                                executor="where")
        assert got.rows == base.rows
        assert len(worker_pids()) == 2
        assert {pid for pid, _ in where_kernel()} <= worker_pids()

    def test_pool_never_exceeds_what_a_query_needs(self, tmp_path):
        """jobs far above the task count starts one worker per task."""
        workers.shutdown()
        path = tmp_path / "two.cohana"
        save(compress(_game_table(), target_chunk_rows=1 << 20), path)
        eng = CohanaEngine()
        eng.load_table(TABLE, path)
        assert eng.table(TABLE).n_chunks == 1
        eng.query(MAIN_QUERIES["Q1"](TABLE), jobs=64,
                  backend="processes")
        assert len(worker_pids()) == 1
        workers.shutdown()

    def test_shutdown_stops_workers_and_next_query_restarts(
            self, disk_engine, warm_pool):
        before = worker_pids()
        workers.shutdown()
        assert worker_pids() == set()
        text = MAIN_QUERIES["Q1"](TABLE)
        assert disk_engine.query(text, jobs=2, backend="processes").rows \
            == disk_engine.query(text).rows
        after = worker_pids()
        assert len(after) == 2 and not after & before

    def test_same_path_rewrite_is_answered_from_the_new_bytes(
            self, tmp_path, warm_pool):
        """save A -> query -> save B to the same path -> reload ->
        query, on one warm pool: the workers' cached table for the
        path is A's, and only the digest in the task tells them."""
        path = tmp_path / "t.cohana"
        a = generate(GameConfig(n_users=40, seed=1))
        b = generate(GameConfig(n_users=55, seed=2))
        eng = CohanaEngine()
        save(compress(a, target_chunk_rows=256), path)
        eng.load_table(TABLE, path)
        pids = worker_pids()
        answers_a = _digests(eng, TABLE, jobs=2, backend="processes")
        assert answers_a == _digests(eng, TABLE)
        save(compress(b, target_chunk_rows=256), path)
        eng.load_table(TABLE, path, replace=True)
        answers_b = _digests(eng, TABLE, jobs=2, backend="processes")
        assert answers_b == _digests(eng, TABLE)
        assert answers_b != answers_a
        assert worker_pids() == pids

    def test_file_changed_under_a_loaded_table_is_an_error(
            self, tmp_path):
        """The parent still holds table A (eagerly, so its own copy is
        intact) but the path now holds B: workers cannot open A, and
        must not answer A's plan from B's bytes."""
        path = tmp_path / "t.cohana"
        save(compress(generate(GameConfig(n_users=40, seed=1)),
                      target_chunk_rows=256), path)
        eng = CohanaEngine()
        eager = deserialize(path.read_bytes())
        eager.source_path = str(path)
        eng.register(TABLE, eager)
        save(compress(generate(GameConfig(n_users=55, seed=2)),
                      target_chunk_rows=256), path)
        with pytest.raises(ExecutionError, match="changed on disk"):
            eng.query(MAIN_QUERIES["Q1"](TABLE), jobs=2,
                      backend="processes")

    def test_worker_table_cache_is_a_bounded_lru(self, tmp_path,
                                                 monkeypatch):
        """Run in-process on the worker-side function: the cache holds
        WORKER_TABLE_SLOTS tables, evicts the least recently used, and
        replaces a path's entry when its digest changes."""
        slots = workers.WORKER_TABLE_SLOTS
        monkeypatch.setattr(workers, "_WORKER_TABLES", LRUCache(slots))
        small = compress(make_table1(), target_chunk_rows=4)
        paths = []
        for index in range(slots + 2):
            path = tmp_path / f"t{index}.cohana"
            save(small, path)
            paths.append(str(path))
        digest = load(paths[0]).content_digest
        first = workers._worker_table(paths[0], digest)
        for path in paths[1:slots]:
            workers._worker_table(path, digest)
        assert workers._worker_table(paths[0], digest) is first
        workers._worker_table(paths[slots], digest)
        workers._worker_table(paths[slots + 1], digest)
        assert len(workers._WORKER_TABLES) == slots
        # paths[0] was touched last before the two newcomers: it
        # stays; the two oldest untouched entries went.
        assert workers._WORKER_TABLES.peek(paths[0]) is first
        assert workers._WORKER_TABLES.peek(paths[1]) is None
        assert workers._WORKER_TABLES.peek(paths[2]) is None
        other = compress(_game_table(), target_chunk_rows=512)
        save(other, paths[0])
        fresh = workers._worker_table(paths[0],
                                      load(paths[0]).content_digest)
        assert fresh is not first
        assert len(workers._WORKER_TABLES) == slots
        assert workers._WORKER_TABLES.counters.invalidations == 1

    def test_workers_drop_inherited_signal_handlers(self, disk_engine,
                                                    tmp_path):
        """A forked worker must not keep the parent's handlers (under
        the HTTP server: asyncio's, wired to a socket the fork shares):
        the executor SIGTERMs the survivors of a broken pool, and that
        has to stop the worker, not be delivered to the parent."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("only fork inherits handlers")
        log = tmp_path / "sigterm.log"
        inner = KERNELS["vectorized"].scan

        def scan(table, chunk, plan):
            default = signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
            log.write_text(f"{os.getpid()} {default}")
            return inner(table, chunk, plan)

        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            register_kernel(ChunkKernel(name="sigcheck", scan=scan))
            disk_engine.query(MAIN_QUERIES["Q1"](TABLE), jobs=1,
                              backend="processes", executor="sigcheck")
        finally:
            signal.signal(signal.SIGTERM, previous)
            KERNELS.pop("sigcheck", None)
            workers.shutdown()
        pid, default = log.read_text().split()
        assert int(pid) != os.getpid() and default == "True"

    def test_workers_exit_when_the_parent_is_killed(self, cohana_path):
        """A SIGKILLed parent runs no ``atexit``; its workers must not
        stay behind as orphans."""
        if not os.path.exists("/proc/self/stat"):
            pytest.skip("needs /proc to watch the orphaned workers")
        script = (
            "import multiprocessing, sys\n"
            "from repro.cohana import CohanaEngine\n"
            "from repro.workloads import MAIN_QUERIES\n"
            "engine = CohanaEngine()\n"
            f"engine.load_table({TABLE!r}, {str(cohana_path)!r})\n"
            f"engine.query(MAIN_QUERIES['Q1']({TABLE!r}), jobs=2,\n"
            "             backend='processes')\n"
            "print(*[child.pid for child in\n"
            "        multiprocessing.active_children()], flush=True)\n"
            "sys.stdin.read()\n")
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        try:
            orphans = [int(pid) for pid in
                       parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait()

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        assert len(orphans) == 2
        deadline = time.monotonic() + 10
        while (any(map(running, orphans))
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert [pid for pid in orphans if running(pid)] == []

    def test_sigkilled_worker_fails_the_query_and_pool_recovers(
            self, disk_engine, warm_pool, suicide_kernel):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork inheritance of the test kernel")
        text = MAIN_QUERIES["Q1"](TABLE)
        base = disk_engine.query(text)
        assert disk_engine.query(text, jobs=2,
                                 backend="processes").rows == base.rows
        doomed = worker_pids()
        with pytest.raises(ExecutionError, match="worker process died"):
            disk_engine.query(text, executor=suicide_kernel, jobs=2,
                              backend="processes")
        assert disk_engine.query(text, jobs=2,
                                 backend="processes").rows == base.rows
        fresh = worker_pids()
        assert len(fresh) == 2 and not fresh & doomed

    def test_concurrent_queries_share_the_pool(self, disk_engine,
                                               warm_pool):
        """More querying threads than workers, all on one pool, each
        bounded to its own window: every answer is right and the pool
        is still two workers."""
        names = sorted(MAIN_QUERIES)
        expected = {name: result_digest(
            disk_engine.query(MAIN_QUERIES[name](TABLE)))
            for name in names}
        pids = worker_pids()
        wrong: list = []

        def client(offset: int) -> None:
            try:
                for step in range(len(names)):
                    name = names[(offset + step) % len(names)]
                    got = disk_engine.query(MAIN_QUERIES[name](TABLE),
                                            jobs=2, backend="processes")
                    if result_digest(got) != expected[name]:
                        wrong.append((offset, name))
            except Exception as exc:  # surfaced by the assert below
                wrong.append((offset, repr(exc)))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert worker_pids() == pids


# -- format / lazy reader ----------------------------------------------------

#: sha256 of ``serialize(compress(make_table1(), target_chunk_rows=4))``:
#: the bytes a writer emits may not move, or every content digest,
#: version token and on-disk view-partial key moves with them.
GOLDEN_TABLE1_DIGEST = (
    "126e2176eb7ad227d91036d9be4c3d8d9e279bc667d3b87afa90a66f36ef7381")


class TestFormatV3:
    def test_round_trip(self):
        table = make_table1()
        compressed = compress(table, target_chunk_rows=4)
        back = deserialize(serialize(compressed))
        assert back.decompress() == table

    def test_serialized_bytes_are_pinned(self):
        data = serialize(compress(make_table1(), target_chunk_rows=4))
        assert hashlib.sha256(data).hexdigest() == GOLDEN_TABLE1_DIGEST

    def test_lazy_load_defers_chunk_parsing(self, tmp_path):
        path = tmp_path / "t.cohana"
        save(compress(make_table1(), target_chunk_rows=4), path)
        lazy = load(path)
        assert lazy.is_lazy
        assert lazy.chunks.loaded_count == 0
        lazy.chunks[0]
        assert lazy.chunks.loaded_count == 1
        assert lazy.source_path == str(path)

    def test_lazy_equals_eager(self, tmp_path):
        path = tmp_path / "t.cohana"
        table = _game_table()
        save(compress(table, target_chunk_rows=512), path)
        lazy = load(path)
        eager = deserialize(path.read_bytes())
        assert lazy.is_lazy and not eager.is_lazy
        assert lazy.n_chunks == eager.n_chunks
        assert lazy.n_rows == eager.n_rows
        assert lazy.decompress() == eager.decompress() == \
            table.sorted_by_primary_key()

    def test_lazy_query_parity(self, tmp_path):
        path = tmp_path / "t.cohana"
        save(compress(_game_table(), target_chunk_rows=512), path)
        text = MAIN_QUERIES["Q1"](TABLE)
        lazy_eng, eager_eng = CohanaEngine(), CohanaEngine()
        lazy_eng.register(TABLE, load(path))
        eager_eng.register(TABLE, deserialize(path.read_bytes()))
        assert lazy_eng.query(text).rows == eager_eng.query(text).rows

    def test_corrupt_index_offset_rejected(self):
        data = bytearray(serialize(compress(make_table1(),
                                            target_chunk_rows=4)))
        data[-8:] = (len(data) * 2).to_bytes(8, "little")
        with pytest.raises(StorageError, match="index"):
            deserialize(bytes(data))
