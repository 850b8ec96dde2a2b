"""The caching query service: fingerprints, caches, admission, CLI.

Covers the PR-4 surface: version tokens (content digests for on-disk
tables, monotonic counters in memory), canonical fingerprints, result
cache hit/miss digest parity, invalidation on ``replace=True`` and on
rewritten ``.cohana`` files, LRU eviction order, single-flight
deduplication under the threads backend, the execution setting fixed
when a service is built (validated there, reported by EXPLAIN on hits
and misses alike), and the ``serve`` / ``query --no-cache`` CLI
surface.
"""

import hashlib
import io
import sys
import threading

import pytest

from repro.cli import main
from repro.cohana import CohanaEngine, workers
from repro.cohana.pipeline import KERNELS, ChunkKernel, register_kernel
from repro.datagen import GameConfig, generate
from repro.errors import (
    BindError,
    CatalogError,
    ExecutionError,
    ServiceError,
)
from repro.service import (
    DISPOSITIONS,
    LRUCache,
    QueryService,
    query_key,
    result_fingerprint,
)
from repro.storage import compress, load, save
from repro.storage.format import serialize, deserialize

from helpers import make_table1

QUERY = ('SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent FROM G '
         'BIRTH FROM action = "launch" COHORT BY country')
QUERY_VARIANT = ('select   country, COHORTSIZE, AGE, Sum(gold) AS spent '
                 'FROM G BIRTH FROM action = "launch" COHORT BY country')
OTHER_QUERY = ('SELECT role, COHORTSIZE, AGE, UserCount() FROM G '
               'BIRTH FROM action = "launch" COHORT BY role')
THIRD_QUERY = ('SELECT country, COHORTSIZE, AGE, UserCount() FROM G '
               'BIRTH FROM action = "shop" COHORT BY country')


def _game_table(seed=3, users=30):
    return generate(GameConfig(n_users=users, seed=seed))


def _digest(result):
    return hashlib.sha256(repr(result.rows).encode()).hexdigest()


@pytest.fixture
def engine():
    eng = CohanaEngine()
    eng.create_table("G", _game_table(), target_chunk_rows=64)
    return eng


@pytest.fixture
def service(engine):
    return QueryService(engine)


# -- version tokens -----------------------------------------------------------


class TestVersionTokens:
    def test_memory_tokens_are_monotonic(self):
        eng = CohanaEngine()
        eng.create_table("A", make_table1())
        eng.create_table("B", make_table1())
        ta, tb = eng.version_token("A"), eng.version_token("B")
        assert ta.startswith("mem:") and tb.startswith("mem:")
        assert ta != tb

    def test_replace_bumps_memory_token(self):
        eng = CohanaEngine()
        eng.create_table("A", make_table1())
        before = eng.version_token("A")
        eng.create_table("A", make_table1(), replace=True)
        assert eng.version_token("A") != before

    def test_on_disk_token_is_content_digest(self, tmp_path):
        path = tmp_path / "t.cohana"
        save(compress(make_table1(), target_chunk_rows=4), path)
        eng = CohanaEngine()
        eng.load_table("D", path)
        token = eng.version_token("D")
        assert token.startswith("sha256:")
        # Reloading identical bytes yields the identical token.
        eng2 = CohanaEngine()
        eng2.load_table("D", path)
        assert eng2.version_token("D") == token

    def test_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            CohanaEngine().version_token("nope")

    def test_dropped_table_raises(self):
        eng = CohanaEngine()
        eng.create_table("A", make_table1())
        eng.drop_table("A")
        with pytest.raises(CatalogError):
            eng.version_token("A")


class TestFormatV4Digest:
    def test_header_digest_round_trips(self):
        compressed = compress(make_table1(), target_chunk_rows=4)
        data = serialize(compressed)
        back = deserialize(data)
        assert back.content_digest is not None
        # The header digest covers every byte after the digest field.
        prefix = len(b"COHANA01") + 2 + 32
        assert back.content_digest == hashlib.sha256(
            data[prefix:]).hexdigest()

    def test_digest_deterministic_and_content_sensitive(self):
        a = deserialize(serialize(compress(make_table1(),
                                           target_chunk_rows=4)))
        b = deserialize(serialize(compress(make_table1(),
                                           target_chunk_rows=4)))
        c = deserialize(serialize(compress(_game_table(),
                                           target_chunk_rows=64)))
        assert a.content_digest == b.content_digest
        assert a.content_digest != c.content_digest

    def test_lazy_load_reads_header_digest(self, tmp_path):
        """A lazy load takes its digest from the header (no chunk is
        parsed) and gets the same sha256: token as an eager decode — a
        byte-identical re-registration must not cold-start the cache."""
        path = tmp_path / "t.cohana"
        save(compress(make_table1(), target_chunk_rows=4), path)
        lazy = load(path)
        assert lazy.is_lazy
        assert lazy.chunks.loaded_count == 0  # digest without parsing
        eager = deserialize(path.read_bytes())
        assert lazy.content_digest == eager.content_digest is not None
        eng = CohanaEngine()
        eng.register("D", lazy)
        token = eng.version_token("D")
        assert token.startswith("sha256:")
        eng.register("D", load(path), replace=True)
        assert eng.version_token("D") == token

    def test_in_memory_table_has_no_digest(self):
        assert compress(make_table1()).content_digest is None


# -- fingerprints -------------------------------------------------------------


class TestFingerprints:
    def test_textual_variants_share_fingerprint(self, engine):
        a = engine.parse(QUERY)
        b = engine.parse(QUERY_VARIANT)
        assert query_key(a) == query_key(b)
        assert result_fingerprint(a, "t") == result_fingerprint(b, "t")

    def test_parse_options_change_fingerprint(self, engine):
        a = engine.parse(QUERY)
        b = engine.parse(QUERY, age_unit="week")
        assert result_fingerprint(a, "t") != result_fingerprint(b, "t")

    def test_token_changes_fingerprint(self, engine):
        q = engine.parse(QUERY)
        assert result_fingerprint(q, "t1") != result_fingerprint(q, "t2")


# -- result cache -------------------------------------------------------------


class TestResultCache:
    def test_hit_digest_matches_miss(self, service):
        r1, s1 = service.query_with_stats(QUERY)
        r2, s2 = service.query_with_stats(QUERY)
        assert (s1.cache_disposition, s2.cache_disposition) \
            == ("miss", "hit")
        assert _digest(r1) == _digest(r2)
        counters = service.results.counters
        assert (counters.misses, counters.hits) == (1, 1)
        # The hit's scan counters describe the cold run that did the work.
        assert s2.rows_scanned == s1.rows_scanned > 0

    def test_hit_matches_direct_engine_execution(self, service, engine):
        service.query(QUERY)
        cached = service.query(QUERY)
        assert _digest(cached) == _digest(engine.query(QUERY))

    def test_textual_variant_hits(self, service):
        _, s1 = service.query_with_stats(QUERY)
        _, s2 = service.query_with_stats(QUERY_VARIANT)
        assert s2.cache_disposition == "hit"

    def test_bypass_executes_without_caching(self, service):
        _, s1 = service.query_with_stats(QUERY, use_cache=False)
        assert s1.cache_disposition == "bypass"
        _, s2 = service.query_with_stats(QUERY)
        assert s2.cache_disposition == "miss"  # nothing was cached

    def test_disabled_service_defaults_to_bypass(self, engine):
        svc = QueryService(engine, enabled=False)
        _, s = svc.query_with_stats(QUERY)
        assert s.cache_disposition == "bypass"
        _, s = svc.query_with_stats(QUERY, use_cache=True)
        assert s.cache_disposition == "miss"

    def test_callers_cannot_poison_the_cache(self, service):
        first = service.query(QUERY)
        first.rows.clear()
        first.columns.append("junk")
        again = service.query(QUERY)
        assert len(again.rows) > 0
        assert "junk" not in again.columns

    def test_cross_configuration_hit(self, engine, service):
        """Results are parity-guaranteed across executors/backends, so
        the cache key carries no configuration: a service with another
        setting files the same bytes under the same key, and hits."""
        result, _ = service.query_with_stats(QUERY)
        other = QueryService(engine, executor="iterator",
                             backend="threads", jobs=2)
        cold, s1 = other.query_with_stats(QUERY)
        again, s2 = other.query_with_stats(QUERY)
        assert (s1.cache_disposition, s2.cache_disposition) == (
            "miss", "hit")
        assert _digest(cold) == _digest(again) == _digest(result)
        key = query_key(engine.parse(QUERY))
        assert service.results.peek(key).result.rows == \
            other.results.peek(key).result.rows

    @pytest.mark.parametrize("option, error", (
        ({"scan_mode": "auto"}, ExecutionError),
        ({"backend": "bogus"}, ExecutionError),
        ({"jobs": 0}, ExecutionError),
        ({"executor": "nope"}, CatalogError)))
    def test_bad_setting_raises_when_the_service_is_built(
            self, engine, option, error):
        """A setting is checked once, when the service is built, so no
        call, hit or miss, can meet a bad one."""
        with pytest.raises(error):
            QueryService(engine, **option)

    def test_dispositions_enumerated(self):
        assert set(DISPOSITIONS) == {"hit", "miss", "bypass",
                                     "invalidated", "refresh"}


# -- invalidation -------------------------------------------------------------


class TestInvalidation:
    def test_register_replace_invalidates(self, service, engine):
        before = service.query(QUERY)
        engine.create_table("G", _game_table(seed=9), replace=True,
                            target_chunk_rows=64)
        after, stats = service.query_with_stats(QUERY)
        assert stats.cache_disposition == "invalidated"
        assert service.results.counters.invalidations == 1
        assert len(service.results) == 1  # replaced, not added beside
        assert _digest(after) != _digest(before)
        # The fresh result is cached under the new token.
        _, s2 = service.query_with_stats(QUERY)
        assert s2.cache_disposition == "hit"

    def test_rewritten_file_invalidates(self, tmp_path):
        path = tmp_path / "g.cohana"
        save(compress(_game_table(seed=3), target_chunk_rows=64), path)
        eng = CohanaEngine()
        eng.load_table("G", path)
        svc = QueryService(eng)
        before = svc.query(QUERY)
        # Rewrite the same path with different content and re-register.
        save(compress(_game_table(seed=9), target_chunk_rows=64), path)
        eng.register("G", load(path), replace=True)
        after, stats = svc.query_with_stats(QUERY)
        assert stats.cache_disposition == "invalidated"
        assert _digest(after) != _digest(before)

    def test_identical_rewrite_keeps_cache(self, tmp_path):
        """Re-registering byte-identical content keeps the same digest
        token, so cached results stay valid — a hit, not a stale read."""
        path = tmp_path / "g.cohana"
        save(compress(_game_table(seed=3), target_chunk_rows=64), path)
        eng = CohanaEngine()
        eng.load_table("G", path)
        svc = QueryService(eng)
        svc.query(QUERY)
        save(compress(_game_table(seed=3), target_chunk_rows=64), path)
        eng.register("G", load(path), replace=True)
        _, stats = svc.query_with_stats(QUERY)
        assert stats.cache_disposition == "hit"

    def test_view_cached_under_the_token_it_was_served_from(
            self, tmp_path, monkeypatch):
        """A re-registration of B that lands right after the service took
        its snapshot of A must not file either registration's rows
        under the other's token: the view is served A's rows, and a
        later read under each token answers with that registration's
        rows, as a direct query does."""
        path_a, path_b = tmp_path / "a.cohana", tmp_path / "b.cohana"
        save(compress(_game_table(seed=3), target_chunk_rows=64), path_a)
        save(compress(_game_table(seed=9), target_chunk_rows=64), path_b)
        eng = CohanaEngine()
        eng.load_table("G", path_a)
        eng.create_view("v", QUERY)
        direct_a = eng.query(QUERY).rows
        svc = QueryService(eng)
        snapshot = CohanaEngine.snapshot

        def racing(engine, name):
            monkeypatch.setattr(CohanaEngine, "snapshot", snapshot)
            table_and_token = snapshot(engine, name)
            engine.register("G", load(path_b), replace=True)
            return table_and_token

        monkeypatch.setattr(CohanaEngine, "snapshot", racing)
        served_a, _ = svc.serve_view("v")
        assert served_a.rows == direct_a
        direct_b = eng.query(QUERY).rows
        assert direct_b != direct_a
        result, stats = svc.serve_view("v")
        assert stats.cache_disposition != "hit"
        assert result.rows == direct_b
        eng.register("G", load(path_a), replace=True)
        result, stats = svc.serve_view("v")
        assert stats.cache_disposition != "hit"
        assert result.rows == direct_a

    def test_explain_describes_the_registration_its_token_names(
            self, tmp_path, monkeypatch):
        """A re-registration of B that lands right after the service took
        its snapshot of A: EXPLAIN ANALYZE reads A, and its ``Cache``
        line names A's token."""
        path_a, path_b = tmp_path / "a.cohana", tmp_path / "b.cohana"
        save(compress(_game_table(seed=3), target_chunk_rows=64), path_a)
        save(compress(_game_table(seed=9, users=40),
                      target_chunk_rows=64), path_b)
        twin = CohanaEngine()
        twin.load_table("G", path_a)
        expected = twin.explain(QUERY, analyze=True)
        eng = CohanaEngine()
        eng.load_table("G", path_a)
        token_a = eng.version_token("G")
        svc = QueryService(eng)
        snapshot = CohanaEngine.snapshot

        def racing(engine, name):
            monkeypatch.setattr(CohanaEngine, "snapshot", snapshot)
            table_and_token = snapshot(engine, name)
            engine.register("G", load(path_b), replace=True)
            return table_and_token

        monkeypatch.setattr(CohanaEngine, "snapshot", racing)
        plan, cache = svc.explain(QUERY, analyze=True).rsplit("\n", 1)
        assert eng.version_token("G") != token_a  # B did land
        assert plan == expected
        assert f"token={token_a[:18]}," in cache

    def test_explicit_invalidate_table(self, service):
        service.query(QUERY)
        assert service.invalidate_table("G") == 1
        _, stats = service.query_with_stats(QUERY)
        assert stats.cache_disposition == "miss"

    def test_reregistration_race_never_serves_a_third_answer(self):
        """One thread flips ``register(replace=True)`` between contents
        A and B while four query through one service: the cache holds
        one entry per query and replaces it as tokens move, yet every
        answer is A's or B's, and after registering C the next answer
        is C's."""
        contents = {seed: compress(_game_table(seed=seed),
                                   target_chunk_rows=64)
                    for seed in (3, 9, 11)}
        expected = {}
        for seed, table in contents.items():
            direct = CohanaEngine()
            direct.register("G", table)
            expected[seed] = _digest(direct.query(QUERY))
        assert len(set(expected.values())) == 3
        eng = CohanaEngine()
        eng.register("G", contents[3])
        svc = QueryService(eng)
        stop = threading.Event()
        answers, errors = [], []

        def flip():
            flips = 0
            while not stop.is_set():
                eng.register("G", contents[(9, 3)[flips % 2]],
                             replace=True)
                flips += 1

        def read():
            try:
                for _ in range(40):
                    answers.append(_digest(svc.query(QUERY)))
            except Exception as exc:
                errors.append(exc)

        flipper = threading.Thread(target=flip)
        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            flipper.start()
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            stop.set()
            flipper.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not flipper.is_alive()
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert len(answers) == 160
        assert set(answers) <= {expected[3], expected[9]}
        eng.register("G", contents[11], replace=True)
        assert _digest(svc.query(QUERY)) == expected[11]


# -- LRU ----------------------------------------------------------------------


class TestLRUCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1     # refresh a; b is now oldest
        cache.put("c", 3)  # evicts b
        assert (cache.peek("a"), cache.peek("b"), cache.peek("c")) \
            == (1, None, 3)
        assert cache.get("b") is None
        assert cache.counters.evictions == 1
        assert cache.counters.misses == 1

    def test_peek_does_not_touch_recency_or_counters(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.counters.hits == 0
        cache.put("c", 3)  # a is still oldest: peek refreshed nothing
        assert (cache.peek("a"), cache.peek("b"), cache.peek("c")) \
            == (None, 2, 3)

    def test_invalidate_counts_separately_from_eviction(self):
        """A stale entry found by ``get(valid=)`` is a miss plus an
        invalidation — never an eviction — and it is dropped."""
        cache = LRUCache(max_entries=4)
        cache.put("a", 1)
        assert cache.get("a", valid=lambda v: v == 1) == 1
        assert cache.get("a", valid=lambda v: v == 2) is None
        assert cache.peek("a") is None
        assert cache.get("a") is None
        assert cache.counters.as_dict() == {
            "hits": 1, "misses": 2, "evictions": 0, "invalidations": 1}

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ServiceError):
            LRUCache(max_entries=0)

    def test_service_lru_eviction_end_to_end(self, engine):
        svc = QueryService(engine, result_entries=2)
        svc.query(QUERY)
        svc.query(OTHER_QUERY)
        svc.query(QUERY)        # refresh QUERY
        svc.query(THIRD_QUERY)  # evicts OTHER_QUERY
        _, s_kept = svc.query_with_stats(QUERY)
        assert s_kept.cache_disposition == "hit"
        _, s_evicted = svc.query_with_stats(OTHER_QUERY)
        assert s_evicted.cache_disposition == "miss"
        assert svc.results.counters.evictions >= 1

    def test_eviction_count_reported_in_stats(self, engine):
        svc = QueryService(engine, result_entries=1)
        svc.query(QUERY)
        _, stats = svc.query_with_stats(OTHER_QUERY)
        assert stats.cache_disposition == "miss"
        assert svc.stats_snapshot()["results"]["evictions"] == 1


# -- single-flight ------------------------------------------------------------


@pytest.fixture
def gated_kernel():
    """A kernel that signals when the first scan starts and then blocks
    until released — lets the test hold a leader mid-execution while
    followers pile onto the same fingerprint."""
    started = threading.Event()
    release = threading.Event()
    calls = []
    inner = KERNELS["vectorized"].scan

    def scan(table, chunk, plan):
        calls.append(chunk.index)
        started.set()
        assert release.wait(timeout=10), "test forgot to release kernel"
        return inner(table, chunk, plan)

    register_kernel(ChunkKernel(name="gated", scan=scan))
    try:
        yield started, release, calls
    finally:
        del KERNELS["gated"]


class TestSingleFlight:
    def test_concurrent_identical_queries_execute_once(self, engine,
                                                       gated_kernel):
        started, release, calls = gated_kernel
        svc = QueryService(engine, executor="gated", backend="threads",
                           jobs=2)
        outcomes = []

        def call():
            outcomes.append(svc.query_with_stats(QUERY))

        threads = [threading.Thread(target=call) for _ in range(4)]
        threads[0].start()
        assert started.wait(timeout=10)
        for t in threads[1:]:
            t.start()
        # Followers must register as waiters before the leader finishes.
        deadline = threading.Event()
        for _ in range(200):
            if svc.counters.singleflight_waits == 3:
                break
            deadline.wait(0.01)
        assert svc.counters.singleflight_waits == 3
        release.set()
        for t in threads:
            t.join(timeout=30)
        assert len(outcomes) == 4
        dispositions = sorted(s.cache_disposition for _, s in outcomes)
        assert dispositions == ["hit", "hit", "hit", "miss"]
        digests = {_digest(r) for r, _ in outcomes}
        assert len(digests) == 1
        # One execution total: every chunk scanned exactly once.
        assert len(calls) == len(set(calls))

    def test_batch_deduplicates_and_preserves_order(self, service):
        results = [result for result, _ in service.query_batch(
            [QUERY, OTHER_QUERY, QUERY])]
        assert len(results) == 3
        assert _digest(results[0]) == _digest(results[2])
        assert _digest(results[0]) != _digest(results[1])
        # 3 calls, but only 2 distinct executions.
        assert service.counters.misses == 2
        assert service.counters.hits == 1

    def test_batch_outcomes_carry_stats(self, service):
        pairs = service.query_batch([QUERY, QUERY])
        dispositions = sorted(s.cache_disposition for _, s in pairs)
        assert dispositions == ["hit", "miss"]

    def test_a_failing_statement_is_its_own_outcome(self, service):
        """A statement that fails to bind or names an unknown table is
        returned as its error, in its place; the others still run."""
        unbound = QUERY.replace("COHORT BY country", "COHORT BY nosuch")
        unknown = QUERY.replace("FROM G", "FROM Nope")
        outcomes = service.query_batch([QUERY, unbound, unknown,
                                        OTHER_QUERY])
        assert isinstance(outcomes[1], BindError)
        assert isinstance(outcomes[2], CatalogError)
        assert _digest(outcomes[0][0]) == _digest(service.query(QUERY))
        assert (_digest(outcomes[3][0])
                == _digest(service.query(OTHER_QUERY)))

    def test_batch_runs_in_the_callers_thread(self, service,
                                              monkeypatch):
        """A batch starts no threads: its misses execute one after
        another on the calling thread."""
        threads, running, peak = [], [0], [0]
        original = service.engine.execute

        def execute(*args, **kwargs):
            threads.append(threading.get_ident())
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            try:
                return original(*args, **kwargs)
            finally:
                running[0] -= 1

        monkeypatch.setattr(service.engine, "execute", execute)
        service.query_batch([QUERY, OTHER_QUERY], use_cache=False)
        assert threads == [threading.get_ident()] * 2
        assert peak[0] == 1

    def test_empty_batch(self, service):
        assert service.query_batch([]) == []


# -- the service's setting through the cache layer ---------------------------


class TestBackendSurvival:
    @pytest.fixture
    def disk_engine(self, tmp_path):
        path = tmp_path / "g.cohana"
        save(compress(_game_table(), target_chunk_rows=64), path)
        eng = CohanaEngine()
        eng.load_table("G", path)
        return eng

    @pytest.fixture
    def disk_service(self, disk_engine):
        return QueryService(disk_engine)

    def test_explicit_backend_survives_hit_explain(self, disk_engine):
        """A service's explicit backend shows up in EXPLAIN when the
        result is served from cache as when it is not."""
        svc = QueryService(disk_engine, backend="threads", jobs=2)
        assert "backend=threads" in svc.explain(QUERY)
        svc.query(QUERY)
        out = svc.explain(QUERY)
        assert "backend=threads" in out
        assert "disposition=hit" in out

    def test_hit_without_explicit_backend_reports_cold_config(
            self, disk_engine, monkeypatch):
        """With backend=None the backend is resolved against the table
        the entry's token names, so a hit reports the configuration of
        the run that produced the cached bytes: here the processes
        backend an on-disk table gets at jobs=2."""
        svc = QueryService(disk_engine, jobs=2)
        ran = []
        execute = disk_engine.execute

        def record(query, table, executor, config, **kw):
            ran.append(config.describe())
            return execute(query, table, executor, config, **kw)

        monkeypatch.setattr(disk_engine, "execute", record)
        try:
            svc.query(QUERY)
            out = svc.explain(QUERY)
        finally:
            workers.shutdown()
        assert ran == ["Execution(backend=processes, jobs=2)"]
        assert ran[0] in out
        assert "disposition=hit" in out

    def test_miss_resolves_processes_for_on_disk_tables(self,
                                                        disk_engine):
        out = QueryService(disk_engine, jobs=2).explain(QUERY)
        assert "disposition=miss" in out
        assert "backend=processes" in out

    def test_explain_does_not_distort_cache_state(self, disk_service):
        """EXPLAIN is observational: no counters move, nothing is
        inserted into the result cache."""
        disk_service.explain(QUERY)
        assert len(disk_service.results) == 0
        assert disk_service.results.counters.as_dict() == {
            "hits": 0, "misses": 0, "evictions": 0, "invalidations": 0}

    def test_explain_reports_bypass_and_invalidated(self, disk_service):
        assert "disposition=bypass" in disk_service.explain(
            QUERY, use_cache=False)
        disk_service.query(QUERY)
        eng = disk_service.engine
        eng.create_table("G", _game_table(seed=9), replace=True,
                         target_chunk_rows=64)
        assert "disposition=invalidated" in disk_service.explain(QUERY)


# -- CLI ----------------------------------------------------------------------


@pytest.fixture
def demo_cohana(tmp_path):
    csv = tmp_path / "demo.csv"
    assert main(["generate", str(csv), "--users", "8", "--seed",
                 "5"]) == 0
    path = tmp_path / "demo.cohana"
    assert main(["compress", str(csv), str(path), "--chunk-rows",
                 "64"]) == 0
    return path


CLI_QUERY = ('SELECT country, COHORTSIZE, AGE, UserCount() FROM D '
             'BIRTH FROM action = "launch" COHORT BY country')


class TestServeCLI:
    def _serve(self, monkeypatch, capsys, path, text, extra=()):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["serve", str(path), *extra]) == 0
        return capsys.readouterr()

    def test_piped_queries_hit_after_miss(self, demo_cohana,
                                          monkeypatch, capsys):
        out = self._serve(monkeypatch, capsys, demo_cohana,
                          f"{CLI_QUERY}\n{CLI_QUERY}\n",
                          extra=("--stats",))
        assert "== miss:" in out.out
        assert "== hit:" in out.out
        assert "cohort_size" in out.out
        assert "[batch of 2" in out.out

    def test_meta_stats_and_quit(self, demo_cohana, monkeypatch,
                                 capsys):
        out = self._serve(monkeypatch, capsys, demo_cohana,
                          f"{CLI_QUERY}\n.stats\n.quit\n")
        assert '"singleflight_waits"' in out.out
        assert '"shard_verify"' in out.out

    def test_meta_explain(self, demo_cohana, monkeypatch, capsys):
        out = self._serve(monkeypatch, capsys, demo_cohana,
                          f".explain {CLI_QUERY}\n")
        assert "Cache(disposition=miss" in out.out

    def test_no_cache_flag(self, demo_cohana, monkeypatch, capsys):
        out = self._serve(monkeypatch, capsys, demo_cohana,
                          f"{CLI_QUERY}\n{CLI_QUERY}\n",
                          extra=("--no-cache",))
        assert "== bypass:" in out.out
        assert "== hit:" not in out.out

    def test_bad_query_reported_not_fatal(self, demo_cohana,
                                          monkeypatch, capsys):
        out = self._serve(monkeypatch, capsys, demo_cohana,
                          f"SELECT nonsense\n{CLI_QUERY}\n")
        assert "error:" in out.err
        assert "cohort_size" in out.out

    def test_a_failing_execution_keeps_the_rest_of_its_batch(
            self, demo_cohana, monkeypatch, capsys):
        """One statement whose execution fails is reported on its own;
        the statements batched with it still answer."""
        failing = CLI_QUERY.replace("COHORT BY country", "COHORT BY city")
        failing = failing.replace("SELECT country", "SELECT city")
        execute = CohanaEngine.execute

        def execute_or_fail(self, query, *args, **kw):
            if query.cohort_by == ("city",):
                raise ExecutionError("scan failed")
            return execute(self, query, *args, **kw)

        monkeypatch.setattr(CohanaEngine, "execute", execute_or_fail)
        out = self._serve(monkeypatch, capsys, demo_cohana,
                          f"{CLI_QUERY}\n{failing}\n{CLI_QUERY}\n")
        assert f"error: {failing}: scan failed" in out.err
        assert out.out.count("== ") == 2
        assert "== miss:" in out.out and "== hit:" in out.out

    def test_comments_and_blanks_skipped(self, demo_cohana,
                                         monkeypatch, capsys):
        out = self._serve(monkeypatch, capsys, demo_cohana,
                          f"# a comment\n\n{CLI_QUERY};\n")
        assert "cohort_size" in out.out

    def test_multiline_query_accumulates(self, demo_cohana,
                                         monkeypatch, capsys):
        """A statement split across lines is one query, not a pile of
        broken fragments (terminated by ';' or by parsing whole)."""
        multiline = ('SELECT country, COHORTSIZE, AGE, UserCount()\n'
                     'FROM D\n'
                     'BIRTH FROM action = "launch"\n'
                     'COHORT BY country;\n')
        out = self._serve(monkeypatch, capsys, demo_cohana, multiline)
        assert "cohort_size" in out.out
        assert "error:" not in out.err

    def test_multiline_without_semicolon_completes_on_parse(
            self, demo_cohana, monkeypatch, capsys):
        multiline = ('SELECT country, COHORTSIZE, AGE, UserCount()\n'
                     'FROM D BIRTH FROM action = "launch"\n'
                     'COHORT BY country\n'
                     f'{CLI_QUERY}\n')
        out = self._serve(monkeypatch, capsys, demo_cohana, multiline,
                          extra=("--stats",))
        assert "[batch of 2" in out.out

    def test_parseable_prefix_still_extends(self, demo_cohana,
                                            monkeypatch, capsys):
        """A buffer that already parses is held, not executed: the next
        line may legally extend it (clauses accept either order), and
        splitting early would silently run a different query."""
        text = ('SELECT country, COHORTSIZE, AGE, UserCount() '
                'FROM D BIRTH FROM action = "launch" '
                'COHORT BY country\n'
                'AGE ACTIVITIES IN action = "shop";\n')
        out = self._serve(monkeypatch, capsys, demo_cohana, text)
        assert out.out.count("== ") == 1  # ONE statement, with the
        assert "error:" not in out.err    # age clause applied

    def test_broken_fragment_does_not_swallow_next_query(
            self, demo_cohana, monkeypatch, capsys):
        out = self._serve(monkeypatch, capsys, demo_cohana,
                          f"SELECT oops FROM\n{CLI_QUERY}\n")
        assert "error:" in out.err
        assert "cohort_size" in out.out

    def test_trailing_fragment_reported_at_eof(self, demo_cohana,
                                               monkeypatch, capsys):
        out = self._serve(monkeypatch, capsys, demo_cohana,
                          "SELECT country, COHORTSIZE FROM D\n")
        assert "error:" in out.err


    def test_each_piped_statement_is_parsed_once(
            self, demo_cohana, monkeypatch, capsys):
        """The parse that finds where a statement ends is the one the
        session runs: two held statements cost the accumulator three
        parses (each line, then the two joined), and two statements
        ended by ``;`` one each."""
        import repro.cohana.parser as parser_mod
        tokenize = parser_mod.tokenize
        texts = []

        def counting(text):
            texts.append(text)
            return tokenize(text)

        monkeypatch.setattr(parser_mod, "tokenize", counting)
        out = self._serve(monkeypatch, capsys, demo_cohana,
                          f"{CLI_QUERY}\n{CLI_QUERY}\n")
        assert out.out.count("== ") == 2
        assert len(texts) == 3
        texts.clear()
        out = self._serve(monkeypatch, capsys, demo_cohana,
                          f"{CLI_QUERY};\n{CLI_QUERY};\n")
        assert out.out.count("== ") == 2
        assert texts == [CLI_QUERY, CLI_QUERY]


class _Terminal(io.StringIO):
    """A stdin stub that reports a terminal: ``serve`` prompts, and
    each line is one statement."""

    def isatty(self):
        return True


class _InterruptedTerminal(_Terminal):
    """A terminal whose user presses Ctrl-C at the first prompt."""

    def readline(self, *args):
        raise KeyboardInterrupt


class TestServeTerminal:
    def _serve(self, monkeypatch, capsys, path, text, extra=(),
               stdin=_Terminal):
        monkeypatch.setattr("sys.stdin", stdin(text))
        code = main(["serve", str(path), *extra])
        return code, capsys.readouterr()

    def test_a_repeated_query_misses_then_hits(self, demo_cohana,
                                               monkeypatch, capsys):
        code, out = self._serve(monkeypatch, capsys, demo_cohana,
                                f"{CLI_QUERY}\n{CLI_QUERY}\n",
                                extra=("--stats",))
        assert code == 0
        assert out.out.startswith(f"serving {demo_cohana} (cache on)")
        assert "cohana> " in out.out
        miss = out.out.index(f"== miss: {CLI_QUERY}")
        assert out.out.index(f"== hit: {CLI_QUERY}") > miss
        assert out.out.count("[batch of 1 in") == 2

    def test_each_line_is_one_statement(self, demo_cohana, monkeypatch,
                                        capsys):
        """A broken line reports its error and the session goes on; a
        line that would extend a piped statement is its own one."""
        code, out = self._serve(
            monkeypatch, capsys, demo_cohana,
            f"SELECT nonsense\n{CLI_QUERY}\n"
            'AGE ACTIVITIES IN action = "shop"\n')
        assert code == 0
        assert "error: SELECT nonsense:" in out.err
        assert 'error: AGE ACTIVITIES IN action = "shop":' in out.err
        assert out.out.count("== miss:") == 1
        assert "cohort_size" in out.out

    def test_meta_stats(self, demo_cohana, monkeypatch, capsys):
        code, out = self._serve(monkeypatch, capsys, demo_cohana,
                                f"{CLI_QUERY}\n.stats\n")
        assert code == 0
        assert '"singleflight_waits"' in out.out
        assert '"misses": 1' in out.out

    def test_quit_eof_and_ctrl_c_end_the_session(self, demo_cohana,
                                                 monkeypatch, capsys):
        code, out = self._serve(monkeypatch, capsys, demo_cohana,
                                f".quit\n{CLI_QUERY}\n")
        assert code == 0
        assert "== " not in out.out
        code, out = self._serve(monkeypatch, capsys, demo_cohana, "")
        assert code == 0
        assert out.out.endswith("cohana> \n")
        code, out = self._serve(monkeypatch, capsys, demo_cohana,
                                f"{CLI_QUERY}\n",
                                stdin=_InterruptedTerminal)
        assert code == 0
        assert "== " not in out.out


class TestQueryCacheCLI:
    def test_explain_shows_disposition(self, demo_cohana, capsys):
        assert main(["query", str(demo_cohana), CLI_QUERY,
                     "--explain"]) == 0
        assert "Cache(disposition=miss" in capsys.readouterr().out

    def test_no_cache_explain_shows_bypass(self, demo_cohana, capsys):
        assert main(["query", str(demo_cohana), CLI_QUERY, "--explain",
                     "--no-cache"]) == 0
        assert "Cache(disposition=bypass" in capsys.readouterr().out

    def test_query_still_runs_with_no_cache(self, demo_cohana, capsys):
        assert main(["query", str(demo_cohana), CLI_QUERY,
                     "--no-cache"]) == 0
        assert "cohort_size" in capsys.readouterr().out
