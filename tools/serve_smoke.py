#!/usr/bin/env python3
"""End-to-end smoke gauntlet for the HTTP service tier (CI leg).

Boots the real thing — ``python -m repro serve <table> --http`` as a
subprocess — and proves the serving story the ISSUE promises, over the
wire, with nothing mocked:

1. **Mixed concurrent traffic**: worker threads fire ``/query``,
   ``/explain``, ``/stats`` and ``/batch`` at the live server; every
   query result's digest must equal a direct in-process
   :class:`~repro.cohana.engine.CohanaEngine` run of the same
   statement over the same table directory, and a batch statement
   that fails to bind is a structured ``ok: false`` entry beside its
   good neighbours.
2. **Structured failure**: a malformed statement comes back as a JSON
   400 carrying the error type and parse position — never a stack
   trace; a body naming ``executor`` (the server alone decides how a
   query runs) is a 400 naming the field both before and after its
   query is cached, and ``/stats`` still balances.
3. **Load shedding**: a second server with a one-slot, zero-queue,
   quota-1 admission config takes a simultaneous burst of ``/query``
   and ``/batch`` requests; at least one request must be shed with a
   429 and an honest ``Retry-After``, and ``/stats`` still balances.
4. **Worker death**: on a server booted with ``--jobs 2``, a scan
   worker of the persistent ``processes`` pool is SIGKILLed while a
   query's tasks sit on it; that query is a structured 500 (never a
   hang), its admission slot is released, the next query is answered
   by fresh worker processes, and ``/stats`` still balances.
5. **Graceful drain**: SIGTERM lands while requests are in flight;
   every in-flight request completes (zero dropped), the final drain
   stats line is flushed, and the process exits 0.
6. **Hard kill**: a ``--jobs 2`` server with a warm ``processes`` pool
   is SIGKILLed (no drain, no ``atexit``); its scan workers exit on
   their own and the port can be bound again at once — the workers
   never held the listening socket.
7. **Ingest reuse**: over a three-shard table, a query, then a
   bad-cell and a duplicate-key ``POST /ingest``, each a 400 that
   appends no shard (``/stats`` still balances), then two rounds of a
   ``POST /ingest`` of a user-disjoint batch and the query again:
   each re-read is ``invalidated``, scans at most the new shard, and
   matches an in-process engine over the directory, and
   ``/stats`` shows every older shard's partial reused
   (``service.partials.hits`` at least the shard counts before).
8. **Stdin session**: a session piped into ``python -m repro serve``
   — a multi-line statement without ``;``, a ``CREATE MATERIALIZED
   VIEW`` barrier, ``.view``, a statement that fails to bind and one
   after it, then EOF — exits 0, prints each answer as an in-process
   engine's rows, and the failing statement's ``error:`` line on
   stderr.

Exit status 0 means the gauntlet passed. Needs ``PYTHONPATH=src``
(for the direct-engine parity runs); stdlib only otherwise.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

FAILURES: list[str] = []


def check(ok: bool, message: str) -> None:
    tag = "ok" if ok else "FAIL"
    print(f"  {tag}: {message}")
    if not ok:
        FAILURES.append(message)


QUERIES = {
    "cohorts": 'SELECT country, COHORTSIZE, AGE, UserCount() '
               'FROM D BIRTH FROM action = "launch" COHORT BY country',
    "metric": 'SELECT country, COHORTSIZE, AGE, Sum(gold) '
              'FROM D BIRTH FROM action = "launch" COHORT BY country',
    "selective": 'SELECT city, COHORTSIZE, AGE, UserCount() '
                 'FROM D BIRTH FROM action = "shop" COHORT BY city',
}
MALFORMED = 'SELECT country, FROM D BIRTH'
#: Parses, but fails to bind: ``nosuch`` is no column of the table.
UNBOUND = ('SELECT nosuch, COHORTSIZE, AGE, UserCount() '
           'FROM D BIRTH FROM action = "launch" COHORT BY nosuch')


class Server:
    """One ``serve --http`` subprocess with its bound port."""

    def __init__(self, table_dir: Path, *flags: str):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(table_dir),
             "--http", "127.0.0.1:0", *flags],
            stderr=subprocess.PIPE, text=True)
        assert self.process.stderr is not None
        self.stderr = self.process.stderr
        line = self.stderr.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if not match:
            self.process.kill()
            raise RuntimeError(f"server did not announce a port: "
                               f"{line!r}")
        self.port = int(match.group(1))
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                status, _, _ = self.request("GET", "/healthz")
            except OSError:
                time.sleep(0.05)
                continue
            if status == 200:
                return
        raise RuntimeError("server never became healthy")

    def request(self, method: str, path: str, body: dict | None = None,
                tenant: str | None = None,
                ) -> tuple[int, dict, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        headers = {"X-Tenant": tenant} if tenant else {}
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None,
                     headers=headers)
        response = conn.getresponse()
        raw = response.read()
        conn.close()
        return (response.status,
                {k.lower(): v for k, v in response.getheaders()},
                json.loads(raw) if raw else {})


def build_dataset(workdir: Path) -> Path:
    csv = workdir / "data.csv"
    table_dir = workdir / "table_dir"
    for command in (["generate", str(csv), "--users", "40",
                     "--seed", "11"],
                    ["ingest", str(csv), str(table_dir),
                     "--chunk-rows", "256"]):
        subprocess.run([sys.executable, "-m", "repro", *command],
                       check=True, capture_output=True)
    return table_dir


def direct_digests(table_dir: Path) -> dict[str, str]:
    """Ground truth digests straight from the engine, no HTTP."""
    from repro.cohana import CohanaEngine
    from repro.service.protocol import result_digest

    engine = CohanaEngine()
    engine.load_table("D", str(table_dir))
    return {name: result_digest(engine.query(engine.parse(text)))
            for name, text in QUERIES.items()}


def bad_executor(server: Server, when: str) -> None:
    """A body naming ``executor`` (a 60x slower kernel is one value)
    must be a structured 400 naming the field, whether or not the query
    is cached."""
    status, _, payload = server.request(
        "POST", "/query", {"query": QUERIES["cohorts"],
                           "executor": "iterator"})
    error = payload.get("error", {})
    check(status == 400 and error.get("type") == "ProtocolError"
          and "'executor'" in error.get("message", ""),
          f"executor=iterator {when} → structured 400 naming the field "
          f"(got {status}, {error.get('message')})")


def mixed_traffic(server: Server, digests: dict[str, str]) -> None:
    print("phase 1: concurrent mixed traffic + digest parity")
    bad_executor(server, "before its query is cached")
    outcomes: list[tuple[str, bool]] = []
    lock = threading.Lock()

    def query_worker(name: str) -> None:
        status, _, payload = server.request(
            "POST", "/query", {"query": QUERIES[name]})
        with lock:
            outcomes.append((f"query {name}", status == 200
                             and payload["digest"] == digests[name]))

    def explain_worker(name: str) -> None:
        status, _, payload = server.request(
            "POST", "/explain", {"query": QUERIES[name]})
        with lock:
            outcomes.append((f"explain {name}", status == 200
                             and "explain" in payload))

    def stats_worker() -> None:
        status, _, payload = server.request("GET", "/stats")
        with lock:
            outcomes.append(("stats", status == 200
                             and "http" in payload
                             and "service" in payload))

    def batch_worker() -> None:
        # A statement that fails to bind is its own structured error;
        # the good statements beside it keep digest parity.
        status, _, payload = server.request(
            "POST", "/batch",
            {"queries": [QUERIES["cohorts"], UNBOUND, QUERIES["metric"]]})
        entries = payload.get("results", [])
        bad = entries[1] if len(entries) == 3 else {}
        ok = (status == 200 and payload["count"] == 3
              and bad.get("ok") is False and bad.get("status") == 400
              and bad.get("error", {}).get("type") == "BindError"
              and all(entry["ok"] and entry["digest"] == digests[name]
                      for entry, name in zip(entries[::2],
                                             ("cohorts", "metric"))))
        with lock:
            outcomes.append(("batch", ok))

    threads = []
    for _ in range(3):  # three rounds of everything, all at once
        threads += [threading.Thread(target=query_worker, args=(n,))
                    for n in QUERIES]
        threads += [threading.Thread(target=explain_worker, args=(n,))
                    for n in QUERIES]
        threads += [threading.Thread(target=stats_worker),
                    threading.Thread(target=batch_worker)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    check(len(outcomes) == len(threads),
          f"all {len(threads)} concurrent requests answered")
    for label, ok in sorted(outcomes):
        if not ok:
            check(False, f"{label} failed or diverged from the "
                         f"direct engine run")
    if all(ok for _, ok in outcomes):
        check(True, f"digest parity with direct engine runs across "
                    f"{len(outcomes)} responses")

    status, _, payload = server.request(
        "POST", "/query", {"query": MALFORMED})
    error = payload.get("error", {})
    check(status == 400 and error.get("type") == "ParseError"
          and isinstance(error.get("position"), int),
          f"malformed statement → structured 400 "
          f"(got {status}, {error.get('type')}, "
          f"position={error.get('position')})")
    bad_executor(server, "after its query is cached")
    _, _, snapshot = server.request("GET", "/stats")
    stats = snapshot["http"]
    check(stats["received"] == stats["completed"] + stats["errors"]
          + stats["shed"], f"/stats balances after the 400s ({stats})")


def burst(table_dir: Path) -> None:
    print("phase 2: 429-inducing burst against a one-slot server")
    server = Server(table_dir, "--max-inflight", "1",
                    "--queue-depth", "0", "--tenant-quota", "1")
    try:
        statuses: list[tuple[int, dict]] = []
        lock = threading.Lock()
        barrier = threading.Barrier(10)

        def worker(wid: int) -> None:
            barrier.wait()
            # Every third request is a /batch: one slot, one request.
            path, body = (("/batch", {"queries": list(QUERIES.values())})
                          if wid % 3 == 0 else
                          ("/query", {"query": QUERIES["selective"]}))
            status, headers, _ = server.request(
                "POST", path, {**body, "use_cache": False},
                tenant=f"burst-{wid % 3}")
            with lock:
                statuses.append((status, headers))

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        shed = [(s, h) for s, h in statuses if s == 429]
        check(len(shed) >= 1,
              f"burst shed {len(shed)}/10 requests with 429")
        check(all(float(h.get("retry-after", 0)) > 0 for _, h in shed),
              "every 429 carried a positive Retry-After")
        check(all(s in (200, 429) for s, _ in statuses),
              f"no unexpected statuses "
              f"({sorted({s for s, _ in statuses})})")
        _, _, snapshot = server.request("GET", "/stats")
        stats = snapshot["http"]
        check(stats["received"] == stats["completed"] + stats["errors"]
              + stats["shed"], f"/stats balances after the burst ({stats})")
    finally:
        server.process.terminate()
        server.process.wait(30)


def children_of(pid: int) -> list[int]:
    """Live child processes of ``pid``, read from ``/proc`` (Linux)."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError):
            continue  # the process exited while we were looking
        if int(ppid) == pid and state != "Z":
            children.append(int(stat.parent.name))
    return children


def worker_death(table_dir: Path, digests: dict[str, str]) -> None:
    print("phase 3: SIGKILLed scan worker → structured 500, fresh pool")
    if not Path("/proc/self/stat").exists():
        print("  skipped: needs /proc to find the server's workers")
        return
    server = Server(table_dir, "--jobs", "2")
    try:
        worker_death_on(server, digests)
    finally:
        server.process.terminate()
        server.process.wait(30)


def worker_death_on(server: Server, digests: dict[str, str]) -> None:
    body = {"query": QUERIES["selective"], "use_cache": False}
    status, _, payload = server.request("POST", "/query", body)
    check(status == 200 and payload["digest"] == digests["selective"],
          "processes backend answers with digest parity (pool warm)")
    doomed = children_of(server.process.pid)
    check(len(doomed) >= 1, f"server has scan workers ({doomed})")
    if not doomed:
        return
    # Stopped workers hold the query's tasks without finishing them,
    # so the kill is certain to land mid-query.
    for pid in doomed:
        os.kill(pid, signal.SIGSTOP)
    answer: list[tuple[int, dict]] = []
    client = threading.Thread(target=lambda: answer.append(
        server.request("POST", "/query", body)[::2]))
    client.start()
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            _, _, snapshot = server.request("GET", "/stats")
            if snapshot["http"]["inflight"] >= 1:
                break
            time.sleep(0.005)
        time.sleep(0.5)  # admitted → planned → tasks on the workers
        os.kill(doomed[0], signal.SIGKILL)
        # The survivors stay stopped until the answer is in: one resumed
        # now could finish the query's tasks before the pool notices the
        # death. The pool fails the pending tasks before it stops or
        # joins any worker, so the answer needs none of them to run.
        client.join(60)
    finally:
        for pid in doomed[1:]:
            os.kill(pid, signal.SIGCONT)
    client.join(60)
    check(not client.is_alive() and len(answer) == 1,
          "the in-flight query was answered (no hang)")
    status, payload = answer[0] if answer else (0, {})
    error = payload.get("error", {})
    check(status == 500 and error.get("type") == "ExecutionError",
          f"dead worker → structured 500 "
          f"(got {status}, {error.get('type')})")
    status, _, payload = server.request("POST", "/query", body)
    fresh = children_of(server.process.pid)
    check(status == 200 and payload["digest"] == digests["selective"],
          f"next query succeeds with digest parity (got {status})")
    check(bool(fresh) and not set(fresh) & set(doomed),
          f"on fresh worker processes ({fresh})")
    _, _, snapshot = server.request("GET", "/stats")
    stats = snapshot["http"]
    check(stats["inflight"] == 0, "admission slot released")
    check(stats["received"] == stats["completed"] + stats["errors"]
          + stats["shed"], f"/stats still balances ({stats})")


def drain(server: Server, digests: dict[str, str]) -> None:
    print("phase 4: SIGTERM graceful drain with requests in flight")
    outcomes: list[bool] = []
    lock = threading.Lock()
    started = threading.Barrier(5)

    def worker() -> None:
        started.wait()
        status, _, payload = server.request(
            "POST", "/query",
            {"query": QUERIES["selective"], "use_cache": False})
        with lock:
            outcomes.append(status == 200 and payload["digest"]
                            == digests["selective"])

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    started.wait()
    # All four must be in flight server-side (reading /stats is not
    # admission-gated) before the plug is pulled — a request the
    # server has not read yet is not "in flight".
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        _, _, snapshot = server.request("GET", "/stats")
        if snapshot["http"]["inflight"] >= 4:
            break
        time.sleep(0.005)
    server.process.send_signal(signal.SIGTERM)
    for thread in threads:
        thread.join(60)
    code = server.process.wait(60)
    check(len(outcomes) == 4 and all(outcomes),
          f"all {len(outcomes)}/4 in-flight requests completed with "
          f"digest parity (zero dropped)")
    check(code == 0, f"server exited 0 after drain (got {code})")
    tail = server.stderr.read()
    match = re.search(r"drain: (\{.*\})", tail)
    stats = json.loads(match.group(1)) if match else {}
    check(bool(match) and stats.get("received", -1)
          == stats.get("completed", 0) + stats.get("errors", 0)
          + stats.get("shed", 0),
          f"drain stats flushed and balanced ({stats})")


def running(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process, from ``/proc``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def hard_kill(table_dir: Path, digests: dict[str, str]) -> None:
    print("phase 5: SIGKILLed server → no orphaned workers, port free")
    if not Path("/proc/self/stat").exists():
        print("  skipped: needs /proc to find the server's workers")
        return
    server = Server(table_dir, "--jobs", "2")
    try:
        status, _, payload = server.request(
            "POST", "/query", {"query": QUERIES["selective"]})
        check(status == 200
              and payload["digest"] == digests["selective"],
              "processes backend answers with digest parity")
        orphans = children_of(server.process.pid)
        check(len(orphans) >= 1, f"server has scan workers ({orphans})")
    finally:
        server.process.kill()
        server.process.wait(30)
    # Bound without SO_REUSEADDR: a LISTEN socket surviving in a
    # worker would make this fail with "address already in use".
    with socket.socket() as listener:
        try:
            listener.bind(("127.0.0.1", server.port))
            rebound = True
        except OSError as exc:
            rebound = False
            print(f"  bind: {exc}")
    check(rebound, f"port {server.port} can be bound again at once")
    deadline = time.monotonic() + 10
    while any(map(running, orphans)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in orphans if running(pid)]
    check(not left, f"the workers exited with their parent "
                    f"(left behind: {left})")
    for pid in left:
        os.kill(pid, signal.SIGKILL)


def user_batches(csv: Path, n: int) -> list[str]:
    """``csv`` (sorted by player) as ``n`` user-disjoint CSV texts."""
    header, *lines = csv.read_text().splitlines()
    players = sorted({line.split(",", 1)[0] for line in lines})
    per = -(-len(players) // n)
    return ["\n".join([header] + [
        line for line in lines
        if line.split(",", 1)[0] in players[i:i + per]]) + "\n"
        for i in range(0, len(players), per)]


def ingest_reuse(workdir: Path) -> None:
    print("phase 6: an ingested shard is the only one re-scanned")
    from repro.cohana import CohanaEngine
    from repro.service.protocol import result_digest
    from repro.storage import read_manifest

    csv = workdir / "reuse.csv"
    table_dir = workdir / "reuse_dir"
    subprocess.run([sys.executable, "-m", "repro", "generate", str(csv),
                    "--users", "40", "--seed", "12"],
                   check=True, capture_output=True)
    batches = user_batches(csv, 5)
    old, new = batches[:3], batches[3:]
    for index, text in enumerate(old):
        batch = workdir / f"batch{index}.csv"
        batch.write_text(text)
        subprocess.run([sys.executable, "-m", "repro", "ingest",
                        str(batch), str(table_dir), "--chunk-rows", "64",
                        *(["--append"] if index else [])],
                       check=True, capture_output=True)
    server = Server(table_dir)
    try:
        body = {"query": QUERIES["metric"]}
        status, _, payload = server.request("POST", "/query", body)
        check(status == 200, f"first query answered (got {status})")
        # A batch read_csv refuses appends nothing.
        header, first, *_ = new[0].splitlines()
        refused = {"bad cell": f"{header}\n{first.rsplit(',', 1)[0]},abc\n",
                   "duplicate key": f"{header}\n{first}\n{first}\n"}
        for case, text in refused.items():
            status, _, payload = server.request(
                "POST", "/ingest", {"csv": text, "table": "D"})
            shards = len(read_manifest(table_dir)["shards"])
            check(status == 400 and shards == len(old),
                  f"POST /ingest of a {case} is a 400 and appends nothing "
                  f"(got {status}, {shards} shards)")
        _, _, snapshot = server.request("GET", "/stats")
        stats = snapshot["http"]
        check(stats["received"] == stats["completed"] + stats["errors"]
              + stats["shed"], f"/stats balances after the 400s ({stats})")
        # Two ingests in a row: the second refresh keeps the shards
        # the first one opened, the new one among them.
        for shards, text in enumerate(new, start=len(old) + 1):
            status, _, payload = server.request(
                "POST", "/ingest", {"csv": text, "table": "D"})
            check(status == 200 and payload.get("shards_total") == shards,
                  f"POST /ingest appended shard {shards} (got {status}, "
                  f"{payload})")
            status, _, payload = server.request("POST", "/query", body)
            engine = CohanaEngine()
            engine.load_table("D", str(table_dir))
            expected = result_digest(engine.query(QUERIES["metric"]))
            stats = payload.get("stats", {})
            check(status == 200
                  and stats.get("cache_disposition") == "invalidated",
                  f"the re-read is invalidated "
                  f"(got {status}, {stats.get('cache_disposition')})")
            check(payload.get("digest") == expected,
                  "the re-read matches an in-process engine")
            check(stats.get("shards_scanned", 9) <= 1,
                  f"the re-read scanned at most the new shard "
                  f"({stats.get('shards_scanned')} of "
                  f"{stats.get('shards_total')})")
        reused = sum(range(len(old), len(old) + len(new)))
        _, _, snapshot = server.request("GET", "/stats")
        hits = snapshot["service"]["partials"]["hits"]
        check(hits >= reused,
              f"/stats partials.hits {hits} >= {reused} shards before "
              f"the ingests")
    finally:
        server.process.terminate()
        server.process.wait(30)


def stdin_session(table_dir: Path) -> None:
    print("phase 7: a piped stdin session")
    from repro.cohana import CohanaEngine

    multiline = QUERIES["cohorts"].replace(" FROM D", "\nFROM D") \
        .replace(" COHORT BY", "\nCOHORT BY")
    session = "\n".join([
        multiline,
        f"CREATE MATERIALIZED VIEW smoke AS {QUERIES['metric']};",
        ".view smoke",
        UNBOUND,
        QUERIES["selective"],
    ]) + "\n"
    done = subprocess.run(
        [sys.executable, "-m", "repro", "serve", str(table_dir)],
        input=session, capture_output=True, text=True, timeout=120)
    check(done.returncode == 0,
          f"the session exits 0 at EOF (got {done.returncode})")
    engine = CohanaEngine()
    engine.load_table("D", str(table_dir))
    expected = [
        f"== miss: {multiline}\n",
        engine.query(QUERIES["cohorts"]).to_text(),
        "created view smoke: ",
        engine.query(QUERIES["metric"]).to_text(),
        f"== miss: {QUERIES['selective']}\n",
        engine.query(QUERIES["selective"]).to_text(),
    ]
    at = 0
    for block in expected:
        found = done.stdout.find(block, at)
        check(found >= 0, f"stdout shows, in order: "
                          f"{block.splitlines()[0]!r}")
        if found >= 0:
            at = found + len(block)
    check(f"error: {UNBOUND}: unknown column 'nosuch'" in done.stderr,
          f"the unbound statement's error is on stderr "
          f"({done.stderr.strip()!r})")
    check(done.stdout.count("== ") == 2,
          "the multi-line statement ran once, the failing one not at all")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        table_dir = build_dataset(workdir)
        digests = direct_digests(table_dir)
        print(f"dataset ready; direct digests: {digests}")
        server = Server(table_dir, "--max-inflight", "4",
                        "--queue-depth", "64", "--tenant-quota", "64")
        try:
            mixed_traffic(server, digests)
            burst(table_dir)
            worker_death(table_dir, digests)
            drain(server, digests)
        finally:
            if server.process.poll() is None:
                server.process.kill()
        hard_kill(table_dir, digests)
        ingest_reuse(workdir)
        stdin_session(table_dir)
    if FAILURES:
        print(f"serve-smoke: {len(FAILURES)} failure(s)")
        return 1
    print("serve-smoke: all phases passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
