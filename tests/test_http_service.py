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
shape of a structured 400 parse error, the ``serve --http`` CLI
wiring, and the serving tier's side of the persistent scan-worker pool
(a SIGKILLed worker is a structured 500 with the slot released, a
client cannot size the pool, the workers hold none of the server's
sockets, the drain stops the workers).
"""

import hashlib
import http.client
import json
import multiprocessing
import os
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.cohana import CohanaEngine, workers
from repro.cohana.pipeline import KERNELS, ChunkKernel, register_kernel
from repro.datagen import GameConfig, game_schema, generate
from repro.service import (
    AdmissionConfig,
    HttpCohortServer,
    QueryService,
    TokenBucket,
    start_in_thread,
)
from repro.storage import append_shard
from repro.table import ActivityTable

from helpers import kill_own_process_scan, worker_pids

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
        import repro.service.service as service_mod
        executions = []
        original = service_mod.ChunkScheduler.run

        def counting(scheduler):
            executions.append(scheduler.plan)
            time.sleep(0.1)  # hold the miss open so the storm piles up
            return original(scheduler)

        monkeypatch.setattr(service_mod.ChunkScheduler, "run", counting)
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


# -- endpoints ----------------------------------------------------------------


class TestEndpoints:
    def test_query_digest_parity_and_serving_stats(self, engine,
                                                   service):
        direct = _digest(engine.query(engine.parse(QUERY)))
        server = HttpCohortServer(service)
        with start_in_thread(server) as handle:
            status, _, payload = _request(
                handle.address, "POST", "/query", {"query": QUERY})
        assert status == 200
        assert payload["digest"] == direct
        assert payload["rows"] and payload["columns"]
        stats = payload["stats"]
        assert stats["http_admitted"] >= 1
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
        assert "service" in payload

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
        return HttpCohortServer(QueryService(engine),
                                ingest_dir=directory,
                                csv_schema=game_schema())

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
    """The serving tier over ``backend='processes'`` on a table that
    lives on disk (workers open it by path)."""

    PROCESSES = {"jobs": 2, "backend": "processes", "use_cache": False}

    @pytest.fixture
    def disk_service(self, tmp_path):
        directory = _sharded_game_dir(tmp_path)
        engine = CohanaEngine()
        engine.load_table("G", str(directory))
        workers.shutdown()
        yield QueryService(engine)
        workers.shutdown()

    def test_sigkilled_worker_is_a_500_and_the_slot_is_released(
            self, disk_service):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs fork inheritance of the test kernel")
        register_kernel(ChunkKernel(name="suicide",
                                    scan=kill_own_process_scan))
        server = HttpCohortServer(disk_service, admission=AdmissionConfig(
            max_inflight=1, queue_depth=0))
        try:
            with start_in_thread(server) as handle:
                ok, _, good = _request(
                    handle.address, "POST", "/query",
                    {"query": QUERY, **self.PROCESSES})
                doomed = worker_pids()
                status, _, payload = _request(
                    handle.address, "POST", "/query",
                    {"query": QUERY, "executor": "suicide",
                     **self.PROCESSES})
                # One slot, no queue: a leaked slot would shed this.
                again, _, after = _request(
                    handle.address, "POST", "/query",
                    {"query": QUERY, **self.PROCESSES})
                fresh = worker_pids()
                _, _, stats = _request(handle.address, "GET", "/stats")
        finally:
            del KERNELS["suicide"]
        assert ok == 200 and len(doomed) == 2
        assert status == 500
        assert payload["error"]["type"] == "ExecutionError"
        assert "worker process died" in payload["error"]["message"]
        assert again == 200 and after["digest"] == good["digest"]
        assert len(fresh) == 2 and not fresh & doomed
        http_stats = stats["http"]
        assert http_stats["inflight"] == 0
        assert http_stats["errors"] == 1
        assert http_stats["received"] == (
            http_stats["completed"] + http_stats["errors"]
            + http_stats["shed"])

    def test_client_jobs_are_clamped_to_the_host(self, disk_service):
        server = HttpCohortServer(disk_service)
        with start_in_thread(server) as handle:
            _, _, serial = _request(handle.address, "POST", "/query",
                                    {"query": QUERY, "use_cache": False})
            status, _, payload = _request(
                handle.address, "POST", "/query",
                {"query": QUERY, "jobs": 10_000,
                 "backend": "processes", "use_cache": False})
            pool = worker_pids()
            bad, _, error = _request(
                handle.address, "POST", "/query",
                {"query": QUERY, "jobs": "many"})
        assert status == 200 and payload["digest"] == serial["digest"]
        assert 1 <= len(pool) <= os.cpu_count()
        assert bad == 400 and error["error"]["type"] == "ProtocolError"

    def test_workers_do_not_hold_the_servers_sockets(self, disk_service):
        """The first processes request forks the workers while its own
        connection (and the listener) is open. A worker that kept its
        copies would keep the connection from ever reaching EOF at a
        ``Connection: close`` client."""
        body = json.dumps({"query": QUERY, **self.PROCESSES}).encode()
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
            status, _, _ = _request(
                handle.address, "POST", "/query",
                {"query": QUERY, **self.PROCESSES})
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
        assert captured["ingest_dir"] is None  # not a sharded dir

    def test_bad_http_address_is_an_error(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path), "--http", "localhost"])
        assert code == 1
        assert "--http expects HOST:PORT" in capsys.readouterr().err

    def test_end_to_end_over_the_cli_surface(self, tmp_path):
        """A real server through the CLI construction path (bind on
        first use, sharded dir detection) without a subprocess."""
        directory = _sharded_game_dir(tmp_path)
        engine = CohanaEngine()
        service = QueryService(engine)
        lock = threading.Lock()

        def bind_table(name):
            with lock:
                if name not in engine.tables():
                    engine.load_table(name, str(directory))

        server = HttpCohortServer(service, bind_table=bind_table,
                                  ingest_dir=directory,
                                  csv_schema=game_schema())
        query = QUERY.replace("FROM G", "FROM D")
        with start_in_thread(server) as handle:
            status, _, payload = _request(handle.address, "POST",
                                          "/query", {"query": query})
        assert status == 200
        assert "D" in engine.tables()  # lazily bound by the request
        direct = _digest(engine.query(engine.parse(query)))
        assert payload["digest"] == direct
