"""Asyncio HTTP frontend over :class:`~repro.service.QueryService`
with admission control.

This is the network service tier: one event loop accepts HTTP/1.1
connections (:func:`asyncio.start_server`, stdlib-only) and keeps all
engine work off itself — every admitted request runs on a bounded
thread pool whose size *is* the execution capacity. The request
lifecycle::

    accept ──▶ parse request ──▶ admit ──▶ cache/execute ──▶ respond
                     │             │                            ▲
                     │             ├─ rate limit ──▶ 429 + Retry-After
                     │             ├─ tenant quota ▶ 429 + Retry-After
                     │             ├─ queue full ──▶ 429 + Retry-After
                     │             └─ draining ────▶ 503
                     └─ malformed ─▶ structured 400 (type + position)

Admission control (:class:`AdmissionController`) is what keeps the
tier stable under overload instead of growing threads without bound:

* a **per-tenant token bucket** (``tenant_rate``/``tenant_burst``)
  smooths request rates; an empty bucket sheds with ``429`` and an
  honest ``Retry-After``;
* a **per-tenant in-flight quota** (``tenant_quota``) stops one tenant
  from occupying the whole pool;
* a **bounded admission queue**: at most ``max_inflight`` requests
  execute and at most ``queue_depth`` more wait; anything beyond is
  shed with ``429`` instead of queued without limit;
* **request timeouts with cancellation**: a request that times out
  *while queued* is truly cancelled (it never executes); one that
  times out mid-execution is answered ``504`` while its thread runs to
  completion in the background — the single-flight entry it leads
  still completes and populates the cache, so caches stay consistent
  and followers are served;
* **graceful drain** (SIGTERM/SIGINT or :meth:`HttpCohortServer.
  drain`): stop accepting, answer late arrivals ``503``, finish every
  in-flight request, stop the persistent scan workers
  (:func:`repro.cohana.workers.shutdown`), flush a final stats line —
  zero in-flight queries dropped. (A timed-out request still scanning
  in the background may start the workers again; those stop at
  interpreter exit.)

Execution slots are released when the worker thread actually finishes
(not when a timed-out awaiter gives up), so admission always reflects
true pool occupancy.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading
import time
from collections import Counter as TallyCounter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from repro.cohana import workers
from repro.errors import ReproError, ServiceError
from repro.service.protocol import (
    HttpRequest,
    ProtocolError,
    error_payload,
    read_request,
    render_response,
    result_payload,
    status_for,
)

#: Admission shed reasons, in the order the checks run.
SHED_REASONS = ("rate", "quota", "queue", "draining")


class Shed(ServiceError):
    """A request was refused admission (mapped to 429, or 503 when the
    server is draining).

    Attributes:
        reason: one of :data:`SHED_REASONS`.
        retry_after: seconds after which a retry may succeed.
    """

    def __init__(self, reason: str, message: str,
                 retry_after: float = 1.0):
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


class TokenBucket:
    """The classic rate limiter: ``burst`` capacity refilled at
    ``rate`` tokens/second. Single-threaded by design — admission runs
    entirely on the event loop."""

    def __init__(self, rate: float, burst: float,
                 clock=time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ServiceError(
                f"token bucket needs positive rate/burst, got "
                f"rate={rate}, burst={burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._clock = clock
        self._updated = clock()

    def try_acquire(self) -> float:
        """Take one token. Returns ``0.0`` on success, otherwise the
        seconds until a token will have refilled (the honest
        ``Retry-After``)."""
        now = self._clock()
        self.tokens = min(self.burst,
                          self.tokens + (now - self._updated) * self.rate)
        self._updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


@dataclass(frozen=True)
class AdmissionConfig:
    """The admission-control knobs (CLI: ``serve --http``).

    Attributes:
        max_inflight: requests executing concurrently — also the size
            of the engine thread pool, so a slot is a real thread.
        queue_depth: admitted requests allowed to wait for a slot
            beyond the executing set; the bounded buffer that absorbs
            bursts without unbounded growth.
        tenant_quota: per-tenant cap on in-flight (executing + queued)
            requests.
        tenant_rate: per-tenant token-bucket refill in requests/second
            (``None`` disables rate limiting).
        tenant_burst: per-tenant token-bucket capacity.
        timeout_seconds: per-request budget covering queue wait plus
            execution; requests may lower (never raise) it per call.
    """

    max_inflight: int = 8
    queue_depth: int = 16
    tenant_quota: int = 8
    tenant_rate: float | None = None
    tenant_burst: int = 8
    timeout_seconds: float = 30.0

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ServiceError(f"max_inflight must be >= 1, "
                               f"got {self.max_inflight}")
        if self.queue_depth < 0:
            raise ServiceError(f"queue_depth must be >= 0, "
                               f"got {self.queue_depth}")
        if self.tenant_quota < 1:
            raise ServiceError(f"tenant_quota must be >= 1, "
                               f"got {self.tenant_quota}")
        if self.timeout_seconds <= 0:
            raise ServiceError(f"timeout_seconds must be > 0, "
                               f"got {self.timeout_seconds}")

    def as_dict(self) -> dict:
        return {"max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
                "tenant_quota": self.tenant_quota,
                "tenant_rate": self.tenant_rate,
                "tenant_burst": self.tenant_burst,
                "timeout_seconds": self.timeout_seconds}


@dataclass
class HttpCounters:
    """Serving-tier counters, exposed via ``GET /stats`` and stamped
    into each response's :class:`~repro.cohana.pipeline.ExecStats`."""

    received: int = 0
    admitted: int = 0
    completed: int = 0
    errors: int = 0
    shed_rate: int = 0
    shed_quota: int = 0
    shed_queue: int = 0
    shed_draining: int = 0
    timeouts: int = 0
    drained: int = 0

    @property
    def shed(self) -> int:
        return (self.shed_rate + self.shed_quota + self.shed_queue
                + self.shed_draining)

    def as_dict(self) -> dict[str, int]:
        return {"received": self.received, "admitted": self.admitted,
                "completed": self.completed, "errors": self.errors,
                "shed": self.shed, "shed_rate": self.shed_rate,
                "shed_quota": self.shed_quota,
                "shed_queue": self.shed_queue,
                "shed_draining": self.shed_draining,
                "timeouts": self.timeouts, "drained": self.drained}


class AdmissionController:
    """Token buckets, quotas, and one bounded waiting room.

    All state is touched only from the event loop thread, so there are
    no locks; :meth:`release` reaches the loop via
    ``call_soon_threadsafe`` when a worker thread finishes.
    """

    def __init__(self, config: AdmissionConfig, clock=time.monotonic):
        self.config = config
        self.counters = HttpCounters()
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._tenant_inflight: TallyCounter[str] = TallyCounter()
        self._inflight_total = 0
        self._slots = asyncio.Semaphore(config.max_inflight)

    @property
    def inflight(self) -> int:
        """Admitted requests currently executing or queued."""
        return self._inflight_total

    @property
    def waiting(self) -> int:
        """Admitted requests queued for an execution slot."""
        return max(0, self._inflight_total - self.config.max_inflight)

    def tenant_inflight(self, tenant: str) -> int:
        return self._tenant_inflight.get(tenant, 0)

    def _shed(self, reason: str, message: str,
              retry_after: float) -> None:
        setattr(self.counters, f"shed_{reason}",
                getattr(self.counters, f"shed_{reason}") + 1)
        raise Shed(reason, message, retry_after)

    async def admit(self, tenant: str) -> None:
        """Admit one request for ``tenant`` (or raise :class:`Shed`),
        then wait for an execution slot. Every successful ``admit``
        must be paired with exactly one :meth:`release`; cancellation
        while queued undoes the admission by itself."""
        cfg = self.config
        if cfg.tenant_rate is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    cfg.tenant_rate, cfg.tenant_burst, self._clock)
            retry_after = bucket.try_acquire()
            if retry_after > 0:
                self._shed("rate",
                           f"tenant {tenant!r} exceeded "
                           f"{cfg.tenant_rate}/s rate limit",
                           retry_after)
        if self._tenant_inflight[tenant] >= cfg.tenant_quota:
            self._shed("quota",
                       f"tenant {tenant!r} already has "
                       f"{self._tenant_inflight[tenant]} requests "
                       f"in flight (quota {cfg.tenant_quota})", 1.0)
        if self._inflight_total >= cfg.max_inflight + cfg.queue_depth:
            self._shed("queue",
                       f"admission queue full ({self.waiting} waiting "
                       f"on {cfg.max_inflight} slots)", 1.0)
        self._tenant_inflight[tenant] += 1
        self._inflight_total += 1
        try:
            await self._slots.acquire()
        except BaseException:
            # Cancelled (request timeout) while queued: the request
            # never executes — a true cancellation, undone in place.
            self._release_counts(tenant)
            raise
        self.counters.admitted += 1

    def release(self, tenant: str) -> None:
        """Free the execution slot taken by a finished worker."""
        self._slots.release()
        self._release_counts(tenant)

    def _release_counts(self, tenant: str) -> None:
        self._tenant_inflight[tenant] -= 1
        if self._tenant_inflight[tenant] <= 0:
            del self._tenant_inflight[tenant]
        self._inflight_total -= 1


@dataclass
class _Response:
    """One route's outcome before HTTP serialization."""

    status: int = 200
    body: dict | list | str | bytes = b""
    headers: dict[str, str] = field(default_factory=dict)
    close: bool = False


class HttpCohortServer:
    """The asyncio HTTP/1.1 frontend over one
    :class:`~repro.service.QueryService`.

    Endpoints (see ``docs/http-api.md``):

    ========  ===========  =============================================
    method    path         behaviour
    ========  ===========  =============================================
    POST      /query       one cohort query → result + stats + digest
    POST      /batch       many statements, one admission slot
    GET/POST  /explain     plan + cache disposition (``analyze`` opt-in)
    GET       /stats       service + cache + admission counters
    POST      /ingest      append a CSV batch as a new shard
    GET       /healthz     liveness (``503`` while draining)
    ========  ===========  =============================================

    Args:
        service: the query service whose caches and single-flight
            admission serve every request.
        host/port: bind address (port 0 picks a free port; see
            :attr:`address` after :meth:`start`).
        admission: the :class:`AdmissionConfig`.
        bind_table: optional ``callable(table_name)`` that loads a
            table into the engine on first use (the CLI binds the
            served path under each query's FROM name). Must be
            thread-safe; ``None`` means only pre-registered tables
            resolve.
        ingest_dir: sharded table directory that ``POST /ingest``
            appends to (``None`` disables ingest with a 400).
        csv_schema: schema for ingested CSV bodies (the CLI passes the
            game schema).
        parse_kw: forwarded to every parse (``age_unit``,
            ``time_bin_origin``).
        scan_mode / executor: execution defaults, overridable per
            request.
    """

    def __init__(self, service, *, host: str = "127.0.0.1",
                 port: int = 0,
                 admission: AdmissionConfig | None = None,
                 bind_table=None, ingest_dir=None, csv_schema=None,
                 parse_kw: dict | None = None,
                 scan_mode: str = "auto",
                 executor: str | None = None, clock=time.monotonic):
        self.service = service
        self.engine = service.engine
        self.config = admission or AdmissionConfig()
        self.admission = AdmissionController(self.config, clock)
        self.host = host
        self.port = port
        self.address: tuple[str, int] | None = None
        self._bind_table = bind_table
        self._ingest_dir = ingest_dir
        self._csv_schema = csv_schema
        self._parse_kw = dict(parse_kw or {})
        self._scan_mode = scan_mode
        self._executor = executor
        self._pool: ThreadPoolExecutor | None = None
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        self._drain_task: asyncio.Task | None = None
        self._stopped: asyncio.Event | None = None
        self._idle: asyncio.Event | None = None
        self._busy = 0
        self._writers: set[asyncio.StreamWriter] = set()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._ingest_lock = threading.Lock()
        self._routes = {
            ("GET", "/healthz"): self._route_healthz,
            ("GET", "/stats"): self._route_stats,
            ("GET", "/explain"): self._route_explain,
            ("POST", "/explain"): self._route_explain,
            ("POST", "/query"): self._route_query,
            ("POST", "/batch"): self._route_batch,
            ("POST", "/ingest"): self._route_ingest,
        }

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the listener and return the bound ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="cohana-http")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.address = self._server.sockets[0].getsockname()[:2]
        self._ready.set()
        return self.address

    async def serve_until_drained(self) -> None:
        """Serve until :meth:`drain` (or a signal) completes."""
        if self._server is None:
            await self.start()
        try:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self._schedule_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread / platform without signal support
        await self._stopped.wait()

    def run(self) -> None:
        """Blocking entry point (the CLI and :func:`start_in_thread`):
        start, serve, drain, return."""
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surface bind errors to waiters
            self._startup_error = exc
            self._ready.set()
            raise

    async def _amain(self) -> None:
        host, port = await self.start()
        print(f"serving http://{host}:{port} "
              f"(max_inflight={self.config.max_inflight}, "
              f"queue_depth={self.config.queue_depth}, "
              f"tenant_quota={self.config.tenant_quota})",
              file=sys.stderr, flush=True)
        await self.serve_until_drained()

    def wait_ready(self, timeout: float = 10.0) -> tuple[str, int]:
        """Block (from another thread) until the listener is bound."""
        if not self._ready.wait(timeout):
            raise ServiceError("HTTP server did not start in time")
        if self._startup_error is not None:
            raise ServiceError(
                f"HTTP server failed to start: {self._startup_error}")
        assert self.address is not None
        return self.address

    def _schedule_drain(self) -> None:
        """Begin drain from a signal handler or loop callback."""
        if self._drain_task is None and self._loop is not None:
            self._drain_task = self._loop.create_task(self.drain())

    def request_drain(self) -> None:
        """Thread-safe drain trigger (tests, embedding servers)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._schedule_drain)

    async def drain(self) -> dict:
        """Graceful shutdown: stop accepting, finish every in-flight
        request, flush the final stats line, release the loop.

        Returns the flushed stats snapshot. Idempotent: later calls
        wait for the first to finish.
        """
        if self._draining:
            await self._stopped.wait()
            return self.stats_snapshot()
        self._draining = True
        in_flight = self._busy
        self._server.close()
        await self._server.wait_closed()
        await self._idle.wait()
        self.admission.counters.drained = in_flight
        for writer in list(self._writers):
            writer.close()
        # Worker threads of timed-out requests may still be running;
        # they hold no admission state the drain needs, so don't block
        # the loop on them (the interpreter joins them at exit).
        self._pool.shutdown(wait=False)
        # The scan workers are process-wide, not this server's: stopping
        # them here means an idle pool does not outlive a drained
        # server. An engine still querying in this process (a timed-out
        # request's thread included) restarts them; atexit stops those.
        await asyncio.to_thread(workers.shutdown)
        snapshot = self.stats_snapshot()
        print("drain: " + json.dumps(snapshot["http"]),
              file=sys.stderr, flush=True)
        self._stopped.set()
        return snapshot

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(render_response(
                        exc.status, error_payload(exc),
                        keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                # The busy window covers the response flush too: the
                # drain closes writers once idle, so a response still
                # in the socket buffer must keep the server busy.
                self._busy += 1
                self._idle.clear()
                try:
                    response = await self._dispatch(request)
                    close = (response.close or not request.keep_alive
                             or self._draining)
                    writer.write(render_response(
                        response.status, response.body,
                        keep_alive=not close,
                        extra_headers=response.headers))
                    await writer.drain()
                finally:
                    self._busy -= 1
                    if self._busy == 0:
                        self._idle.set()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: HttpRequest) -> _Response:
        handler = self._routes.get((request.method, request.route))
        if handler is None:
            known_methods = sorted(
                m for m, r in self._routes if r == request.route)
            if known_methods:
                return _Response(405, error_payload(ProtocolError(
                    f"{request.method} not allowed on "
                    f"{request.route}; use {'/'.join(known_methods)}",
                    status=405)),
                    headers={"Allow": ", ".join(known_methods)})
            return _Response(404, error_payload(ProtocolError(
                f"no such endpoint {request.route!r}", status=404)))
        try:
            return await handler(request)
        except Shed as shed:
            if shed.reason == "draining":
                return _Response(503, error_payload(shed), close=True)
            retry_after = max(1, int(-(-shed.retry_after // 1)))
            body = error_payload(shed)
            body["error"]["reason"] = shed.reason
            body["error"]["retry_after"] = retry_after
            return _Response(429, body,
                             headers={"Retry-After": str(retry_after)})
        except TimeoutError:
            self.admission.counters.timeouts += 1
            return _Response(504, {"error": {
                "type": "Timeout",
                "message": f"request exceeded its "
                           f"{self.config.timeout_seconds}s budget"}})
        except ReproError as exc:
            self.admission.counters.errors += 1
            return _Response(status_for(exc), error_payload(exc))
        except Exception as exc:  # never leak a stack trace on the wire
            self.admission.counters.errors += 1
            return _Response(500, error_payload(exc))

    # -- admission + execution -------------------------------------------------

    async def _run_admitted(self, request: HttpRequest, work,
                            timeout: float | None = None):
        """Admit one request and run ``work`` on the engine pool.

        Returns ``(value, admission_wait_seconds)``. The execution slot
        is released when the worker thread actually finishes — a
        timed-out awaiter does not free capacity its thread still
        occupies.
        """
        self.admission.counters.received += 1
        if self._draining:
            self.admission.counters.shed_draining += 1
            raise Shed("draining", "server is draining; connection "
                                   "will close", 1.0)
        budget = self.config.timeout_seconds
        if timeout is not None:
            budget = min(budget, timeout)
        tenant = request.tenant
        started = time.perf_counter()
        async with asyncio.timeout(budget):
            await self.admission.admit(tenant)
            wait_seconds = time.perf_counter() - started
            future = self._pool.submit(work)
            future.add_done_callback(
                lambda _f: self._release_threadsafe(tenant))
            value = await asyncio.wrap_future(future)
        self.admission.counters.completed += 1
        return value, wait_seconds

    def _release_threadsafe(self, tenant: str) -> None:
        try:
            self._loop.call_soon_threadsafe(self.admission.release,
                                            tenant)
        except RuntimeError:
            pass  # loop already closed (process exit)

    def _stamp(self, stats, wait_seconds: float):
        """Stamp the serving-tier counters into one response's
        :class:`~repro.cohana.pipeline.ExecStats`."""
        counters = self.admission.counters
        return replace(stats,
                       admission_wait_seconds=round(wait_seconds, 6),
                       http_admitted=counters.admitted,
                       http_shed=counters.shed,
                       http_timeouts=counters.timeouts,
                       http_drained=counters.drained)

    def _bind(self, text: str) -> None:
        """Load the served table under the query's FROM name (CLI
        mode); resolution errors surface as ordinary query errors."""
        if self._bind_table is not None:
            from repro.cohana.parser import parse_cohort_query
            self._bind_table(parse_cohort_query(text).table)

    def _exec_kw(self, body: dict) -> dict:
        kw = {"scan_mode": body.get("scan_mode", self._scan_mode)}
        if self._executor is not None:
            kw["executor"] = self._executor
        for key in ("executor", "backend"):
            if key in body:
                kw[key] = body[key]
        if "jobs" in body:
            jobs = body["jobs"]
            if not isinstance(jobs, int) or isinstance(jobs, bool):
                raise ProtocolError(f"bad jobs {jobs!r}")
            # Scan workers persist, so a client must not be able to
            # size the pool beyond the host; results do not depend on
            # the worker count.
            kw["jobs"] = min(jobs, os.cpu_count() or 1)
        if "use_cache" in body:
            kw["use_cache"] = bool(body["use_cache"])
        return kw

    @staticmethod
    def _required_query(body: dict, request: HttpRequest) -> str:
        text = body.get("query") or request.params.get("q")
        if not text or not isinstance(text, str):
            raise ProtocolError(
                'missing query text: pass {"query": "..."} in the '
                'body (or ?q= on GET)')
        return text

    @staticmethod
    def _timeout_of(body: dict) -> float | None:
        timeout = body.get("timeout")
        if timeout is None:
            return None
        try:
            timeout = float(timeout)
        except (TypeError, ValueError):
            raise ProtocolError(f"bad timeout {timeout!r}") from None
        if timeout <= 0:
            raise ProtocolError(f"timeout must be > 0, got {timeout}")
        return timeout

    # -- routes ----------------------------------------------------------------

    async def _route_healthz(self, request: HttpRequest) -> _Response:
        if self._draining:
            return _Response(503, {"status": "draining"}, close=True)
        return _Response(200, {"status": "ok",
                               "inflight": self.admission.inflight})

    async def _route_stats(self, request: HttpRequest) -> _Response:
        return _Response(200, self.stats_snapshot())

    def stats_snapshot(self) -> dict:
        return {
            "http": {**self.admission.counters.as_dict(),
                     "inflight": self.admission.inflight,
                     "waiting": self.admission.waiting,
                     "draining": self._draining},
            "admission": self.config.as_dict(),
            "service": self.service.stats_snapshot(),
        }

    async def _route_query(self, request: HttpRequest) -> _Response:
        body = request.json()
        text = self._required_query(body, request)
        exec_kw = self._exec_kw(body)
        parse_kw = self._parse_kw

        def work():
            self._bind(text)
            return self.service.query_with_stats(text, **exec_kw,
                                                 **parse_kw)

        (result, stats), wait = await self._run_admitted(
            request, work, self._timeout_of(body))
        return _Response(200, result_payload(
            result, self._stamp(stats, wait)))

    async def _route_batch(self, request: HttpRequest) -> _Response:
        body = request.json()
        texts = body.get("queries")
        if not isinstance(texts, list) or \
                not all(isinstance(t, str) for t in texts):
            raise ProtocolError(
                'missing statements: pass {"queries": ["...", ...]}')
        exec_kw = self._exec_kw(body)
        parse_kw = self._parse_kw

        def one(text: str) -> dict:
            try:
                self._bind(text)
                result, stats = self.service.query_with_stats(
                    text, **exec_kw, **parse_kw)
            except ReproError as exc:
                return {"ok": False, "status": status_for(exc),
                        **error_payload(exc)}
            return {"ok": True, **result_payload(result, stats)}

        def work() -> list[dict]:
            # One admission slot for the whole batch; inside it the
            # statements run concurrently through the service, so
            # identical in-flight queries still collapse to one
            # execution (single-flight dedup).
            if len(texts) <= 1:
                return [one(t) for t in texts]
            with ThreadPoolExecutor(
                    max_workers=min(8, len(texts)),
                    thread_name_prefix="cohana-batch") as pool:
                return list(pool.map(one, texts))

        results, wait = await self._run_admitted(
            request, work, self._timeout_of(body))
        return _Response(200, {
            "results": results,
            "count": len(results),
            "admission_wait_seconds": round(wait, 6)})

    async def _route_explain(self, request: HttpRequest) -> _Response:
        body = request.json()
        text = self._required_query(body, request)
        analyze = bool(body.get("analyze")
                       or request.params.get("analyze"))
        exec_kw = self._exec_kw(body)
        parse_kw = self._parse_kw

        def work():
            self._bind(text)
            return self.service.explain(text, analyze=analyze,
                                        **exec_kw, **parse_kw)

        explain, wait = await self._run_admitted(
            request, work, self._timeout_of(body))
        return _Response(200, {
            "explain": explain,
            "admission_wait_seconds": round(wait, 6)})

    async def _route_ingest(self, request: HttpRequest) -> _Response:
        body = request.json()
        csv_text = body.get("csv")
        if not csv_text or not isinstance(csv_text, str):
            raise ProtocolError('missing rows: pass {"csv": "..."} '
                                'with a header row')
        if self._ingest_dir is None or self._csv_schema is None:
            raise ProtocolError(
                "ingest is enabled only when serving a sharded table "
                "directory")

        def work() -> dict:
            import tempfile
            from pathlib import Path

            from repro.errors import StorageError
            from repro.storage import append_shard, read_manifest
            from repro.table import read_csv

            with tempfile.NamedTemporaryFile(
                    "w", suffix=".csv", delete=False) as handle:
                handle.write(csv_text)
                tmp = handle.name
            try:
                batch = read_csv(tmp, self._csv_schema)
            finally:
                Path(tmp).unlink(missing_ok=True)
            with self._ingest_lock:
                name = body.get("table")
                if name is None:
                    loaded = self.engine.tables()
                    if len(loaded) != 1:
                        raise ProtocolError(
                            'pass {"table": "<name>"} — the engine '
                            'has no single loaded table to default to')
                    name = loaded[0]
                try:
                    entry = append_shard(self._ingest_dir, batch)
                except StorageError as exc:
                    raise ProtocolError(f"ingest rejected: {exc}",
                                        status=409) from None
                if name in self.engine.tables():
                    self.engine.refresh_table(name)
                elif self._bind_table is not None:
                    self._bind_table(name)
                manifest = read_manifest(self._ingest_dir)
            return {"table": name, "appended": entry["n_rows"],
                    "shard": entry["path"],
                    "shards_total": len(manifest["shards"]),
                    "rows_total": sum(s["n_rows"]
                                      for s in manifest["shards"])}

        outcome, wait = await self._run_admitted(
            request, work, self._timeout_of(body))
        outcome["admission_wait_seconds"] = round(wait, 6)
        return _Response(200, outcome)


# ---------------------------------------------------------------------------
# Embedding helper: run a server on a background thread (tests, bench)
# ---------------------------------------------------------------------------


@dataclass
class ServerHandle:
    """A server running on a background thread (tests, benchmarks)."""

    server: HttpCohortServer
    thread: threading.Thread
    address: tuple[str, int]

    def drain(self, timeout: float = 30.0) -> None:
        """Trigger a graceful drain and join the server thread."""
        self.server.request_drain()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise ServiceError("HTTP server did not drain in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        if self.thread.is_alive():
            self.drain()


def start_in_thread(server: HttpCohortServer,
                    timeout: float = 10.0) -> ServerHandle:
    """Run ``server`` on a daemon thread; returns once it is bound."""
    thread = threading.Thread(target=server.run,
                              name="cohana-http-server", daemon=True)
    thread.start()
    try:
        address = server.wait_ready(timeout)
    except ServiceError:
        thread.join(0.1)
        raise
    return ServerHandle(server=server, thread=thread, address=address)
