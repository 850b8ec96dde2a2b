"""The HTTP service tier: admission control, wire protocol, endpoints.

Covers the serving-tier surface over a *live* server on a loopback
port (no mocked transport): token-bucket refill with an injectable
clock, per-tenant quota exhaustion and queue-full shedding answered as
429 + ``Retry-After``, request timeouts that cancel queued work and
leave the caches consistent, a threaded client storm collapsing to one
execution through the service's single-flight dedup, every endpoint
(``/query`` digest parity, ``/batch``, ``/explain``, ``/stats``,
``/healthz``, ``/ingest`` including the 409 on a user overlap),
graceful drain with zero dropped in-flight requests, the pinned JSON
shape of a structured 400 parse error, the 400 for a body naming an
execution field the server alone decides, the strict ``analyze`` of
``/explain``, the ``serve --http`` CLI wiring and the configuration it
serves, and the serving tier's side of the persistent scan-worker pool
(a SIGKILLed worker is a structured 500 with the slot released, a
client cannot size the pool, the workers hold none of the server's
sockets, the drain stops the workers).
"""

import hashlib
import http.client
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.cohana import CohanaEngine, workers
from repro.datagen import GameConfig, generate
from repro.service import (
    AdmissionConfig,
    HttpCohortServer,
    QueryService,
    TokenBucket,
    start_in_thread,
)
from repro.storage import append_shard, compress, read_manifest, save
from repro.table import ActivityTable

from helpers import worker_pids

QUERY = ('SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent FROM G '
         'BIRTH FROM action = "launch" COHORT BY country')
OTHER_QUERY = ('SELECT role, COHORTSIZE, AGE, UserCount() FROM G '
               'BIRTH FROM action = "launch" COHORT BY role')
MALFORMED = 'SELECT country, FROM G BIRTH'


def _game_table(seed=3, users=30):
    return generate(GameConfig(n_users=users, seed=seed))


def _digest(result):
    return hashlib.sha256(repr(result.rows).encode()).hexdigest()[:16]


def _request(address, method, path, body=None, tenant=None, timeout=30):
    """One request on a fresh connection → (status, headers, json)."""
    conn = http.client.HTTPConnection(address[0], address[1],
                                      timeout=timeout)
    try:
        headers = {"X-Tenant": tenant} if tenant else {}
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None,
                     headers=headers)
        response = conn.getresponse()
        raw = response.read()
        return (response.status,
                {k.lower(): v for k, v in response.getheaders()},
                json.loads(raw) if raw else {})
    finally:
        conn.close()


def _socket_fds(pid):
    """The socket file descriptors process ``pid`` holds (Linux)."""
    held = []
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # closed while we were looking
        if target.startswith("socket:"):
            held.append(target)
    return held


@pytest.fixture
def engine():
    eng = CohanaEngine()
    eng.create_table("G", _game_table(), target_chunk_rows=64)
    return eng


@pytest.fixture
def service(engine):
    return QueryService(engine)


class _Gate:
    """Makes the service slow on demand: every ``query_with_stats``
    call signals ``started`` and blocks until ``release``."""

    def __init__(self, service):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = []
        original = service.query_with_stats

        def slow(query, **kw):
            self.calls.append(query)
            self.started.set()
            assert self.release.wait(10), "gate never released"
            return original(query, **kw)

        service.query_with_stats = slow


@pytest.fixture
def gate_cleanup():
    """Release any gate at teardown so a failing test can't wedge the
    server's drain on a blocked worker thread."""
    gates = []
    yield gates.append
    for gate in gates:
        gate.release.set()


def _balanced(http_stats):
    return http_stats["received"] == (
        http_stats["completed"] + http_stats["errors"]
        + http_stats["shed"])


def _post_in_thread(address, body, results, tenant=None):
    thread = threading.Thread(
        target=lambda: results.append(
            _request(address, "POST", "/query", body, tenant=tenant)),
        daemon=True)
    thread.start()
    return thread


# -- token bucket -------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        retry_after = bucket.try_acquire()
        assert retry_after > 0
        now[0] += retry_after
        assert bucket.try_acquire() == 0.0

    def test_refill_capped_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3, clock=lambda: now[0])
        now[0] += 1000.0  # a long idle refills at most `burst` tokens
        for _ in range(3):
            assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0

    def test_retry_after_is_honest(self):
        now = [0.0]
        bucket = TokenBucket(rate=0.5, burst=1, clock=lambda: now[0])
        assert bucket.try_acquire() == 0.0
        retry_after = bucket.try_acquire()
        assert retry_after == pytest.approx(2.0)
        now[0] += retry_after / 2
        assert bucket.try_acquire() == pytest.approx(1.0)


# -- admission control over the wire ------------------------------------------


class TestAdmissionControl:
    def test_tenant_quota_exhaustion_is_429(self, service, gate_cleanup):
        gate = _Gate(service)
        gate_cleanup(gate)
        server = HttpCohortServer(service, admission=AdmissionConfig(
            max_inflight=4, queue_depth=8, tenant_quota=1))
        with start_in_thread(server) as handle:
            results = []
            thread = _post_in_thread(handle.address, {"query": QUERY},
                                     results, tenant="acme")
            assert gate.started.wait(10)
            status, headers, payload = _request(
                handle.address, "POST", "/query",
                {"query": OTHER_QUERY}, tenant="acme")
            assert status == 429
            assert payload["error"]["reason"] == "quota"
            assert float(headers["retry-after"]) >= 1
            assert payload["error"]["retry_after"] >= 1
            # Another tenant is not collateral damage of acme's quota.
            other = _request(handle.address, "GET", "/healthz")
            assert other[0] == 200
            gate.release.set()
            thread.join(10)
            assert results[0][0] == 200
        assert server.admission.counters.shed_quota == 1

    def test_queue_full_sheds_with_429(self, service, gate_cleanup):
        gate = _Gate(service)
        gate_cleanup(gate)
        server = HttpCohortServer(service, admission=AdmissionConfig(
            max_inflight=1, queue_depth=1, tenant_quota=8))
        with start_in_thread(server) as handle:
            results = []
            first = _post_in_thread(handle.address, {"query": QUERY},
                                    results)
            assert gate.started.wait(10)
            second = _post_in_thread(handle.address,
                                     {"query": OTHER_QUERY}, results)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:  # wait for it to queue
                if server.admission.waiting >= 1:
                    break
                time.sleep(0.005)
            assert server.admission.waiting >= 1
            status, headers, payload = _request(
                handle.address, "POST", "/query", {"query": QUERY})
            assert status == 429
            assert payload["error"]["reason"] == "queue"
            assert "retry-after" in headers
            gate.release.set()
            for thread in (first, second):
                thread.join(10)
            assert sorted(s for s, _, _ in results) == [200, 200]
        assert server.admission.counters.shed_queue == 1

    def test_rate_limit_sheds_with_429(self, service):
        now = [0.0]
        server = HttpCohortServer(
            service,
            admission=AdmissionConfig(tenant_rate=1.0, tenant_burst=1),
            clock=lambda: now[0])
        with start_in_thread(server) as handle:
            first = _request(handle.address, "POST", "/query",
                             {"query": QUERY}, tenant="acme")
            assert first[0] == 200
            status, headers, payload = _request(
                handle.address, "POST", "/query", {"query": QUERY},
                tenant="acme")
            assert status == 429
            assert payload["error"]["reason"] == "rate"
            assert float(headers["retry-after"]) == 1
            now[0] += 1.0  # the advertised wait is sufficient
            assert _request(handle.address, "POST", "/query",
                            {"query": QUERY}, tenant="acme")[0] == 200
        assert server.admission.counters.shed_rate == 1

    def test_timeout_cancels_and_leaves_caches_consistent(
            self, engine, service, gate_cleanup):
        gate = _Gate(service)
        gate_cleanup(gate)
        server = HttpCohortServer(service, admission=AdmissionConfig(
            max_inflight=2, timeout_seconds=0.15))
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/query", {"query": QUERY})
            assert status == 504
            assert payload["error"]["type"] == "Timeout"
            gate.release.set()  # the worker thread finishes late
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if server.admission.inflight == 0:
                    break
                time.sleep(0.005)
            assert server.admission.inflight == 0
            # The tier stays healthy and the caches stay consistent:
            # the same statement now serves the correct result.
            direct = _digest(engine.query(engine.parse(QUERY)))
            status, _, payload = _request(
                handle.address, "POST", "/query",
                {"query": QUERY, "timeout": 30})
            assert status == 200
            assert payload["digest"] == direct
        assert server.admission.counters.timeouts == 1

    def test_timeout_while_queued_never_executes(self, service,
                                                 gate_cleanup):
        gate = _Gate(service)
        gate_cleanup(gate)
        server = HttpCohortServer(service, admission=AdmissionConfig(
            max_inflight=1, queue_depth=4, timeout_seconds=30))
        with start_in_thread(server) as handle:
            results = []
            first = _post_in_thread(handle.address, {"query": QUERY},
                                    results)
            assert gate.started.wait(10)
            status, _, payload = _request(
                handle.address, "POST", "/query",
                {"query": OTHER_QUERY, "timeout": 0.15})
            assert status == 504
            gate.release.set()
            first.join(10)
            assert results[0][0] == 200
        # The timed-out request was cancelled while queued: the
        # engine never saw it, and its admission was undone.
        assert len(gate.calls) == 1
        assert server.admission.counters.admitted == 1
        assert server.admission.counters.timeouts == 1
        assert server.admission.inflight == 0


# -- single-flight dedup under a client storm ---------------------------------


class TestSingleFlight:
    def test_storm_collapses_to_one_execution(self, engine, service,
                                              monkeypatch):
        from repro.cohana.pipeline import ChunkScheduler
        executions = []
        original = ChunkScheduler.run

        def counting(scheduler):
            executions.append(scheduler.plan)
            time.sleep(0.1)  # hold the miss open so the storm piles up
            return original(scheduler)

        monkeypatch.setattr(ChunkScheduler, "run", counting)
        server = HttpCohortServer(service, admission=AdmissionConfig(
            max_inflight=8, queue_depth=32, tenant_quota=32))
        with start_in_thread(server) as handle:
            results = []
            threads = [_post_in_thread(handle.address, {"query": QUERY},
                                       results) for _ in range(8)]
            for thread in threads:
                thread.join(30)
        statuses = sorted(s for s, _, _ in results)
        assert statuses == [200] * 8
        digests = {payload["digest"] for _, _, payload in results}
        assert len(digests) == 1
        assert len(executions) == 1  # one miss, seven followers
        assert service.counters.singleflight_waits >= 1


    def test_a_batch_is_one_execution_in_its_slot(self, engine, service,
                                                  monkeypatch):
        """Behind ``max_inflight=1`` a ``/batch`` of distinct uncached
        statements runs one ``engine.execute`` at a time."""
        lock = threading.Lock()
        running, peak = [0], [0]
        original = engine.execute

        def execute(*args, **kwargs):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.05)  # let overlapping executions meet
            try:
                return original(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(engine, "execute", execute)
        queries = [QUERY.replace('"launch"', f'"launch" AND gold >= {i}')
                   for i in range(8)]
        server = HttpCohortServer(service, admission=AdmissionConfig(
            max_inflight=1))
        with start_in_thread(server) as handle:
            status, _, payload = _request(handle.address, "POST",
                                          "/batch", {"queries": queries})
        assert status == 200
        assert [r["stats"]["cache_disposition"]
                for r in payload["results"]] == ["miss"] * 8
        assert peak[0] == 1

    def test_a_repeated_statement_in_a_batch_executes_once(
            self, engine, service, monkeypatch):
        """A ``/batch`` holding one statement twice runs it once: the
        repeat is answered from the result cache."""
        calls = []
        original = engine.execute

        def execute(query, *args, **kwargs):
            calls.append(query)
            return original(query, *args, **kwargs)

        monkeypatch.setattr(engine, "execute", execute)
        other = QUERY.replace('"launch"', '"launch" AND gold >= 1')
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/batch",
                {"queries": [QUERY, other, QUERY]})
        assert status == 200
        results = payload["results"]
        assert [r["stats"]["cache_disposition"] for r in results] == \
            ["miss", "miss", "hit"]
        assert results[0]["digest"] == results[2]["digest"]
        assert len(calls) == 2
        assert calls.count(engine.parse(QUERY)) == 1


# -- endpoints ----------------------------------------------------------------


class TestEndpoints:
    def test_query_digest_parity_and_serving_stats(self, engine,
                                                   service):
        direct = _digest(engine.query(engine.parse(QUERY)))
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/query", {"query": QUERY})
            _, _, server_stats = _request(handle.address, "GET", "/stats")
        assert status == 200
        assert payload["digest"] == direct
        assert payload["rows"] and payload["columns"]
        stats = payload["stats"]
        assert server_stats["http"]["admitted"] >= 1
        assert not any(key.startswith("http_") for key in stats)
        assert stats["admission_wait_seconds"] >= 0
        assert stats["cache_disposition"] == "miss"

    def test_batch_isolates_failures(self, engine, service):
        direct = _digest(engine.query(engine.parse(QUERY)))
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/batch",
                {"queries": [QUERY, MALFORMED, OTHER_QUERY]})
        assert status == 200
        assert payload["count"] == 3
        good, bad, other = payload["results"]
        assert good["ok"] and good["digest"] == direct
        assert other["ok"]
        assert not bad["ok"]
        assert bad["status"] == 400
        assert bad["error"]["type"] == "ParseError"

    def test_explain_get_with_query_param(self, service):
        from urllib.parse import quote
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "GET", f"/explain?q={quote(QUERY)}")
        assert status == 200
        assert "explain" in payload

    @pytest.mark.parametrize("query_string, body, analyzed", [
        ("&analyze=1", {}, True),
        ("&analyze=true", {}, True),
        ("&analyze=0", {}, False),
        ("&analyze=false", {}, False),
        ("", {"analyze": True}, True),
        ("", {"analyze": False}, False),
        ("", {}, False)])
    def test_explain_analyze_runs_only_when_asked(
            self, service, query_string, body, analyzed):
        from urllib.parse import quote
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST",
                f"/explain?q={quote(QUERY)}{query_string}", body)
        assert status == 200
        assert (" rows_out=" in payload["explain"]) == analyzed

    @pytest.mark.parametrize("query_string, body", [
        ("&analyze=yes", {}),
        ("&analyze=False", {}),
        ("", {"analyze": "false"}),
        ("", {"analyze": 1}),
        ("", {"analyze": None})])
    def test_bad_analyze_is_400_before_admission(self, service,
                                                 query_string, body):
        from urllib.parse import quote
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST",
                f"/explain?q={quote(QUERY)}{query_string}", body)
            _, _, stats = _request(handle.address, "GET", "/stats")
        assert status == 400
        assert payload["error"]["type"] == "ProtocolError"
        assert "analyze" in payload["error"]["message"]
        assert stats["http"]["admitted"] == 0
        assert _balanced(stats["http"])

    def test_stats_sections(self, service):
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            _request(handle.address, "POST", "/query", {"query": QUERY})
            status, _, payload = _request(handle.address, "GET",
                                          "/stats")
        assert status == 200
        assert payload["http"]["received"] >= 1
        assert payload["http"]["admitted"] >= 1
        assert payload["admission"]["max_inflight"] == 8
        assert payload["service"]["shard_verify"]["max_entries"] == 4096

    def test_healthz(self, service):
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(handle.address, "GET",
                                          "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_unknown_route_404_and_wrong_method_405(self, service):
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            assert _request(handle.address, "GET", "/nope")[0] == 404
            status, headers, _ = _request(handle.address, "GET",
                                          "/query")
            assert status == 405
            assert "POST" in headers["allow"]

    def test_missing_query_and_bad_json_are_400(self, service):
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            assert _request(handle.address, "POST", "/query", {})[0] \
                == 400
            conn = http.client.HTTPConnection(*handle.address,
                                              timeout=10)
            conn.request("POST", "/query", body=b"not json{")
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            assert response.status == 400
            assert "JSON" in payload["error"]["message"]


# -- structured parse errors (pinned wire shape) ------------------------------


def _table_scan(explain):
    """The TableScan line of an EXPLAIN text."""
    (line,) = [line for line in explain.splitlines()
               if line.startswith("  TableScan(")]
    return line


class TestExplainAnalyzeIsTheRead:
    """``QueryService.explain(analyze=True)`` and ``GET
    /explain?analyze=1`` over a warm sharded table run the read they
    explain: their TableScan counters, ``shards_reused`` included, are
    a twin engine's ``ExecStats``, and after an append exactly the new
    shard is scanned."""

    def test_service_and_http_report_the_twin_read(self, tmp_path):
        from urllib.parse import quote
        ordered = _game_table().sorted_by_primary_key()
        blocks = list(ordered.user_blocks())
        third = len(blocks) // 3
        for part in (blocks[:third], blocks[third:2 * third],
                     blocks[2 * third:]):
            append_shard(tmp_path / "s",
                         ordered.slice(part[0][1], part[-1][2]),
                         target_chunk_rows=64)
        extra = _game_table(seed=9, users=12)
        extra = ActivityTable.from_rows(extra.schema, [
            ("z" + row[0], *row[1:]) for row in extra.to_rows()])
        engines = [CohanaEngine() for _ in range(3)]
        for eng in engines:
            eng.load_table("G", tmp_path / "s")
            eng.query(QUERY)  # warm
        twin, served, over_http = engines
        service = QueryService(served)
        with start_in_thread(HttpCohortServer(
                QueryService(over_http))) as handle:
            for appended in (False, True):
                if appended:
                    append_shard(tmp_path / "s", extra,
                                 target_chunk_rows=64)
                    for eng in engines:
                        eng.refresh_table("G")
                _, stats = twin.query_with_stats(QUERY)
                assert (stats.shards_total, stats.shards_scanned,
                        stats.shards_reused) == ((4, 1, 3) if appended
                                                 else (3, 0, 3))
                want = (f" chunks={stats.chunks_scanned}/"
                        f"{stats.chunks_total} pruned={stats.chunks_pruned}"
                        f" (zone={stats.chunks_pruned_zone}) "
                        f"rows_out={stats.rows_scanned} shards_reused=3")
                assert _table_scan(service.explain(
                    QUERY, analyze=True)).endswith(want)
                status, _, payload = _request(
                    handle.address, "GET",
                    f"/explain?q={quote(QUERY)}&analyze=1")
                assert status == 200
                assert _table_scan(payload["explain"]).endswith(want)


class TestStructuredErrors:
    def test_malformed_statement_shape_is_pinned(self, service):
        """The 400 body is exactly ``{"error": {type, message,
        position}}`` — the shared classification the REPL prints as an
        ``error:`` line, never a stack trace."""
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/query", {"query": MALFORMED})
        assert status == 400
        assert set(payload) == {"error"}
        error = payload["error"]
        assert set(error) == {"type", "message", "position"}
        assert error["type"] == "ParseError"
        assert isinstance(error["position"], int)
        assert "Traceback" not in json.dumps(payload)

    #: A bad option → what the 400 must name. The server alone decides
    #: how a query runs, so naming an execution field is a 400 whatever
    #: its value.
    BAD_OPTIONS = {
        "scan_mode compressed": ({"scan_mode": "compressed"},
                                 "'scan_mode' is not a request field"),
        "scan_mode decoded": ({"scan_mode": "decoded"},
                              "'scan_mode' is not a request field"),
        "backend processes": ({"backend": "processes"},
                              "'backend' is not a request field"),
        "executor iterator": ({"executor": "iterator"},
                              "'executor' is not a request field"),
        "jobs 2": ({"jobs": 2}, "'jobs' is not a request field"),
        "use_cache string": ({"use_cache": "false"}, "JSON boolean"),
        "use_cache number": ({"use_cache": 0}, "JSON boolean"),
        "timeout bool": ({"timeout": True}, "finite number"),
        "timeout nan": ({"timeout": float("nan")}, "finite number"),
        "timeout infinity": ({"timeout": float("inf")}, "finite number"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
    def test_bad_option_is_400_cold_and_cached(self, service, case):
        """A bad option is the client's error whether or not the query
        is cached: 400 before a warming request and again after it."""
        option, allowed = self.BAD_OPTIONS[case]
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            cold = _request(handle.address, "POST", "/query",
                            {"query": QUERY, **option})
            warm = _request(handle.address, "POST", "/query",
                            {"query": QUERY})
            cached = _request(handle.address, "POST", "/query",
                              {"query": QUERY, **option})
            _, _, stats = _request(handle.address, "GET", "/stats")
        assert warm[0] == 200
        assert warm[2]["stats"]["cache_disposition"] == "miss"
        for status, _, payload in (cold, cached):
            assert status == 400
            assert payload["error"]["type"] == "ProtocolError"
            assert allowed in payload["error"]["message"]
        http_stats = stats["http"]
        assert http_stats["errors"] == 2
        assert _balanced(http_stats)

    @pytest.mark.parametrize("jobs", [1, 0])
    def test_naming_jobs_is_400_before_admission(self, service, jobs):
        """``jobs`` is the server's setting: a body naming it, with any
        value, is rejected before the request takes a slot."""
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            _, _, before = _request(handle.address, "GET", "/stats")
            status, _, payload = _request(handle.address, "POST",
                                          "/query",
                                          {"query": QUERY, "jobs": jobs})
            _, _, after = _request(handle.address, "GET", "/stats")
        assert status == 400
        assert payload["error"]["type"] == "ProtocolError"
        assert "'jobs'" in payload["error"]["message"]
        assert after["http"]["admitted"] == before["http"]["admitted"]

    @pytest.mark.parametrize("field", ["executor", "backend", "jobs",
                                       "scan_mode"])
    def test_batch_and_explain_bodies_naming_a_field_are_400(self,
                                                             service,
                                                             field):
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            answers = [_request(handle.address, "POST", path,
                                {key: text, field: "vectorized"})
                       for path, key, text in (
                           ("/batch", "queries", [QUERY]),
                           ("/explain", "query", QUERY))]
            _, _, stats = _request(handle.address, "GET", "/stats")
        for status, _, payload in answers:
            assert status == 400
            assert payload["error"]["type"] == "ProtocolError"
            assert f"{field!r}" in payload["error"]["message"]
        assert stats["http"]["admitted"] == 0
        assert _balanced(stats["http"])

    def test_a_bad_literal_is_400(self, service):
        """A literal its column's type cannot hold is the client's
        error, answered as a structured 400."""
        text = QUERY.replace('"launch"', '"launch" AND gold = "abc"')
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/query", {"query": text})
            _, _, stats = _request(handle.address, "GET", "/stats")
        assert status == 400
        assert payload == {"error": {"type": "BadValueError",
                                     "message": "bad int value 'abc'"}}
        assert _balanced(stats["http"])

    def test_unknown_table_is_404(self, service):
        query = QUERY.replace("FROM G", "FROM Nope")
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/query", {"query": query})
        assert status == 404
        assert payload["error"]["type"] == "CatalogError"


# -- ingest -------------------------------------------------------------------


def _sharded_game_dir(tmp_path):
    directory = tmp_path / "table_dir"
    append_shard(directory, _game_table(users=12), target_chunk_rows=64)
    return directory


_NEW_USER_CSV = (
    "player,time,action,country,city,role,session_length,gold\n"
    "zz-new,2013/05/20:1000,launch,Narnia,Cair,dwarf,10,0\n"
    "zz-new,2013/05/21:1000,shop,Narnia,Cair,dwarf,10,5\n")


class TestIngest:
    def _server(self, directory):
        engine = CohanaEngine()
        engine.load_table("D", str(directory))
        return HttpCohortServer(QueryService(engine))

    def test_append_refreshes_the_served_table(self, tmp_path):
        directory = _sharded_game_dir(tmp_path)
        server = self._server(directory)
        query = QUERY.replace("FROM G", "FROM D")
        with start_in_thread(server) as handle:
            _, _, before = _request(handle.address, "POST", "/query",
                                    {"query": query})
            status, _, payload = _request(
                handle.address, "POST", "/ingest",
                {"csv": _NEW_USER_CSV})
            assert status == 200
            assert payload["appended"] == 2
            assert payload["shards_total"] == 2
            _, _, after = _request(handle.address, "POST", "/query",
                                   {"query": query})
        # The version token moved: the cached result was invalidated
        # and the new cohort is visible.
        assert after["digest"] != before["digest"]
        assert after["stats"]["cache_disposition"] == "invalidated"

    def test_user_overlap_is_409(self, tmp_path):
        directory = _sharded_game_dir(tmp_path)
        server = self._server(directory)
        with start_in_thread(server) as handle:
            first = _request(handle.address, "POST", "/ingest",
                             {"csv": _NEW_USER_CSV})
            assert first[0] == 200
            status, _, payload = _request(
                handle.address, "POST", "/ingest",
                {"csv": _NEW_USER_CSV})  # same user again: overlap
        assert status == 409
        assert "ingest rejected" in payload["error"]["message"]

    def test_a_table_that_is_not_a_string_is_400(self, tmp_path):
        """A non-string ``"table"`` is refused before admission, so it
        never reaches the catalog as a table name."""
        directory = _sharded_game_dir(tmp_path)
        engine = CohanaEngine(source=str(directory))
        server = HttpCohortServer(QueryService(engine))
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/ingest",
                {"csv": _NEW_USER_CSV, "table": 5})
            _, _, stats = _request(handle.address, "GET", "/stats")
        assert status == 400
        assert '"table" must be a string' in payload["error"]["message"]
        assert engine.tables() == []
        assert len(read_manifest(directory)["shards"]) == 1
        assert _balanced(stats["http"])

    #: A batch ``read_csv`` refuses → what the 400 must name.
    REFUSED = {
        "bad cell": (_NEW_USER_CSV.replace(",10,5", ",10,abc"),
                     "<csv>:3: column 'gold': bad int value 'abc'"),
        "duplicate key": (_NEW_USER_CSV + _NEW_USER_CSV.split("\n")[2],
                          "duplicate primary key ('zz-new'"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_a_refused_batch_is_400_and_appends_nothing(self, tmp_path,
                                                        case):
        csv_text, message = self.REFUSED[case]
        directory = _sharded_game_dir(tmp_path)
        before = read_manifest(directory)
        server = self._server(directory)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/ingest", {"csv": csv_text})
            _, _, stats = _request(handle.address, "GET", "/stats")
        assert status == 400
        assert message in payload["error"]["message"]
        assert read_manifest(directory) == before
        assert _balanced(stats["http"])

    def test_ingest_disabled_without_shard_dir(self, service):
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/ingest",
                {"csv": _NEW_USER_CSV})
        assert status == 400
        assert "sharded table directory" in payload["error"]["message"]


# -- the persistent scan-worker pool ------------------------------------------


class TestScanWorkerPool:
    """The serving tier over a service built with ``jobs=2`` on a table
    that lives on disk: its queries run on the ``processes`` backend
    (workers open the table by path)."""

    UNCACHED = {"query": QUERY, "use_cache": False}

    @pytest.fixture
    def disk_service(self, tmp_path):
        directory = _sharded_game_dir(tmp_path)
        engine = CohanaEngine()
        engine.load_table("G", str(directory))
        workers.shutdown()
        yield QueryService(engine, jobs=2)
        workers.shutdown()

    def test_sigkilled_worker_is_a_500_and_the_slot_is_released(
            self, disk_service, monkeypatch):
        submitted = threading.Event()
        submit = workers._POOL.submit

        def submit_and_signal(*args):
            future = submit(*args)
            submitted.set()
            return future

        server = HttpCohortServer(disk_service, admission=AdmissionConfig(
            max_inflight=1, queue_depth=0))
        with start_in_thread(server) as handle:
            ok, _, good = _request(handle.address, "POST", "/query",
                                   self.UNCACHED)
            doomed = worker_pids()
            victim, *survivors = sorted(doomed)
            # Stopped workers hold the query's tasks unfinished, so the
            # kill lands mid-query. The pool fails the pending tasks
            # before it joins any worker, so the survivors stay stopped
            # until the answer is in.
            for pid in doomed:
                os.kill(pid, signal.SIGSTOP)
            monkeypatch.setattr(workers._POOL, "submit",
                                submit_and_signal)
            answer = []
            client = threading.Thread(target=lambda: answer.append(
                _request(handle.address, "POST", "/query",
                         self.UNCACHED)))
            client.start()
            try:
                assert submitted.wait(10)
                os.kill(victim, signal.SIGKILL)
                client.join(30)
            finally:
                for pid in survivors:
                    os.kill(pid, signal.SIGCONT)
            assert len(answer) == 1
            status, _, payload = answer[0]
            # One slot, no queue: a leaked slot would shed this.
            again, _, after = _request(handle.address, "POST", "/query",
                                       self.UNCACHED)
            fresh = worker_pids()
            _, _, stats = _request(handle.address, "GET", "/stats")
        assert ok == 200 and len(doomed) == 2
        assert status == 500
        assert payload["error"]["type"] == "ExecutionError"
        assert "worker process died" in payload["error"]["message"]
        assert again == 200 and after["digest"] == good["digest"]
        assert len(fresh) == 2 and not fresh & doomed
        http_stats = stats["http"]
        assert http_stats["inflight"] == 0
        assert http_stats["errors"] == 1
        assert _balanced(http_stats)

    def test_client_jobs_are_a_400_and_start_no_worker(self,
                                                       disk_service):
        server = HttpCohortServer(disk_service)
        with start_in_thread(server) as handle:
            answers = [_request(handle.address, "POST", "/query",
                                {**self.UNCACHED, "jobs": jobs})
                       for jobs in (10_000, "many")]
            pool = worker_pids()
        for status, _, payload in answers:
            assert status == 400
            assert payload["error"]["type"] == "ProtocolError"
            assert "'jobs'" in payload["error"]["message"]
        assert pool == set()

    def test_workers_do_not_hold_the_servers_sockets(self, disk_service):
        """The first processes request forks the workers while its own
        connection (and the listener) is open. A worker that kept its
        copies would keep the connection from ever reaching EOF at a
        ``Connection: close`` client."""
        body = json.dumps(self.UNCACHED).encode()
        server = HttpCohortServer(disk_service)
        with start_in_thread(server) as handle:
            with socket.create_connection(handle.address,
                                          timeout=5) as conn:
                conn.sendall(
                    b"POST /query HTTP/1.1\r\nHost: test\r\n"
                    b"Connection: close\r\nContent-Length: "
                    + str(len(body)).encode() + b"\r\n\r\n" + body)
                response = b""
                while chunk := conn.recv(65536):  # times out, never EOF
                    response += chunk
            pool = worker_pids()
            held = {pid: _socket_fds(pid) for pid in pool}
        assert response.startswith(b"HTTP/1.1 200")
        assert len(pool) == 2
        assert held == {pid: [] for pid in pool}

    def test_drain_stops_the_workers(self, disk_service):
        server = HttpCohortServer(disk_service)
        with start_in_thread(server) as handle:
            status, _, _ = _request(handle.address, "POST", "/query",
                                    self.UNCACHED)
            assert status == 200
            assert worker_pids()
        assert worker_pids() == set()


# -- graceful drain -----------------------------------------------------------


class TestDrain:
    def test_inflight_requests_complete_then_listener_refuses(
            self, engine, service, gate_cleanup):
        gate = _Gate(service)
        gate_cleanup(gate)
        server = HttpCohortServer(service, admission=AdmissionConfig(
            max_inflight=1, queue_depth=4))
        handle = start_in_thread(server)
        results = []
        threads = [_post_in_thread(handle.address, {"query": QUERY},
                                   results) for _ in range(3)]
        assert gate.started.wait(10)
        # All three must actually be in flight (one executing, two in
        # the admission queue) before the plug is pulled — a request
        # the server has not read yet is not "in flight".
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if server.admission.inflight >= 3:
                break
            time.sleep(0.005)
        assert server.admission.inflight >= 3
        drainer = threading.Thread(target=handle.drain, daemon=True)
        drainer.start()
        gate.release.set()
        for thread in threads:
            thread.join(30)
        drainer.join(30)
        assert not handle.thread.is_alive()
        # Zero dropped: every request that was in flight (or queued)
        # when the drain began completed with the real result.
        direct = _digest(engine.query(engine.parse(QUERY)))
        assert [s for s, _, _ in results] == [200] * 3
        assert all(p["digest"] == direct for _, _, p in results)
        with pytest.raises(OSError):
            _request(handle.address, "GET", "/healthz", timeout=2)

    def test_draining_healthz_is_503(self, service, gate_cleanup):
        gate = _Gate(service)
        gate_cleanup(gate)
        server = HttpCohortServer(service, admission=AdmissionConfig(
            max_inflight=1))
        handle = start_in_thread(server)
        results = []
        # Hold one request so the drain below cannot finish before the
        # keep-alive probe observes the draining state.
        _post_in_thread(handle.address, {"query": QUERY}, results)
        assert gate.started.wait(10)
        conn = http.client.HTTPConnection(*handle.address, timeout=10)
        conn.request("GET", "/healthz")
        assert conn.getresponse().read() is not None
        server.request_drain()
        deadline = time.monotonic() + 5
        status = None
        while time.monotonic() < deadline:
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                status = response.status
                if status == 503:
                    break
            except OSError:
                break
            time.sleep(0.01)
        conn.close()
        gate.release.set()
        handle.thread.join(10)
        assert status in (503, None)


# -- CLI wiring ---------------------------------------------------------------


class TestServeHttpCLI:
    def test_admission_flags_reach_the_server(self, tmp_path,
                                              monkeypatch):
        import repro.service.http as http_mod
        captured = {}

        class FakeServer:
            def __init__(self, service, **kw):
                captured["service"] = service
                captured.update(kw)

            def run(self):
                captured["ran"] = True

        monkeypatch.setattr(http_mod, "HttpCohortServer", FakeServer)
        code = main(["serve", str(tmp_path / "table_dir"),
                     "--http", "127.0.0.1:0", "--max-inflight", "3",
                     "--queue-depth", "5", "--tenant-quota", "2",
                     "--tenant-rate", "2.5", "--tenant-burst", "4",
                     "--timeout", "9.5"])
        assert code == 0
        assert captured["ran"]
        admission = captured["admission"]
        assert admission.max_inflight == 3
        assert admission.queue_depth == 5
        assert admission.tenant_quota == 2
        assert admission.tenant_rate == 2.5
        assert admission.tenant_burst == 4
        assert admission.timeout_seconds == 9.5
        assert captured["host"] == "127.0.0.1"
        assert captured["port"] == 0
        # The served path reaches the engine; the server holds no
        # table or ingest setting of its own.
        assert captured["service"].engine.source == str(
            tmp_path / "table_dir")

    def test_served_default_is_the_benched_configuration(self, tmp_path,
                                                         monkeypatch):
        """``repro serve --http <dir>`` with no other flag serves the
        configuration perfbench's ``serve_under_ingest`` measures: the
        vectorized kernel, compressed scans, serial execution."""
        import repro.service.http as http_mod
        from urllib.parse import quote
        built = []
        monkeypatch.setattr(http_mod.HttpCohortServer, "run",
                            lambda server: built.append(server))
        directory = _sharded_game_dir(tmp_path)
        assert main(["serve", str(directory), "--http",
                     "127.0.0.1:0"]) == 0
        monkeypatch.undo()
        query = QUERY.replace("FROM G", "FROM D")
        with start_in_thread(built[0]) as handle:
            status, _, payload = _request(
                handle.address, "GET", f"/explain?q={quote(query)}")
        assert status == 200
        explain = payload["explain"]
        assert "[kernel=vectorized]" in explain
        assert "scan_mode=compressed" in explain
        assert "Execution(backend=serial, jobs=1)" in explain

    def test_bad_http_address_is_an_error(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path), "--http", "localhost"])
        assert code == 1
        assert "--http expects HOST:PORT" in capsys.readouterr().err

    @staticmethod
    def _cli_server(monkeypatch, path):
        """The server ``repro serve <path> --http`` builds, not run."""
        import repro.service.http as http_mod
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(http_mod.HttpCohortServer, "run",
                          lambda server: built.append(server))
            assert main(["serve", str(path), "--http",
                         "127.0.0.1:0"]) == 0
        return built[0]

    def test_end_to_end_over_the_cli_surface(self, tmp_path, monkeypatch):
        """A real server through the CLI construction path without a
        subprocess: a statement binds the served directory under its
        FROM name on first use, and ``/ingest`` appends to the
        directory of the table it names."""
        directory = _sharded_game_dir(tmp_path)
        query = QUERY.replace("FROM G", "FROM D")
        twin = CohanaEngine()
        twin.load_table("D", str(directory))
        direct = _digest(twin.query(query))
        server = self._cli_server(monkeypatch, directory)
        with start_in_thread(server) as handle:
            status, _, payload = _request(handle.address, "POST",
                                          "/query", {"query": query})
            ingest = _request(handle.address, "POST", "/ingest",
                              {"csv": _NEW_USER_CSV})
        assert status == 200
        assert server.engine.tables() == ["D"]  # bound by the request
        assert payload["digest"] == direct
        assert ingest[0] == 200
        assert ingest[2]["table"] == "D"
        assert ingest[2]["shards_total"] == 2

    def test_ingest_over_a_served_file_is_400(self, tmp_path, monkeypatch):
        """A served ``.cohana`` file is no sharded table directory:
        ``/ingest`` naming it is a 400, and the file is untouched."""
        path = tmp_path / "g.cohana"
        save(compress(_game_table(), target_chunk_rows=64), path)
        before = path.read_bytes()
        server = self._cli_server(monkeypatch, path)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/ingest",
                {"csv": _NEW_USER_CSV, "table": "G"})
            stats = _request(handle.address, "GET", "/stats")[2]
        assert status == 400
        assert "sharded table directory" in payload["error"]["message"]
        assert path.read_bytes() == before
        assert _balanced(stats["http"])

    def test_each_statement_is_tokenized_once(self, tmp_path,
                                              monkeypatch):
        """Through the CLI construction path, the service parses each
        statement once: ``/query`` cold and on a hit, and every
        statement of a ``/batch``."""
        import repro.cohana.parser as parser_mod
        server = self._cli_server(monkeypatch, _sharded_game_dir(tmp_path))
        tokenize = parser_mod.tokenize
        texts = []

        def counting(text):
            texts.append(text)
            return tokenize(text)

        monkeypatch.setattr(parser_mod, "tokenize", counting)
        query = QUERY.replace("FROM G", "FROM D")
        other = OTHER_QUERY.replace("FROM G", "FROM D")
        with start_in_thread(server) as handle:
            for disposition in ("miss", "hit"):
                texts.clear()
                _, _, payload = _request(handle.address, "POST",
                                         "/query", {"query": query})
                assert payload["stats"]["cache_disposition"] == disposition
                assert texts == [query]
            texts.clear()
            _, _, payload = _request(handle.address, "POST", "/batch",
                                     {"queries": [query, other, query]})
        assert [entry["ok"] for entry in payload["results"]] == [True] * 3
        assert sorted(texts) == sorted([query, other, query])
