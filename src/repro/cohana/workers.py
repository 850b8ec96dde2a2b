"""The persistent scan-worker pool behind the ``processes`` backend.

One lazily started, process-wide :class:`ProcessPoolExecutor` serves
every ``processes`` scan — single files and the sharded fan-out, from
any :class:`~repro.cohana.engine.CohanaEngine` in the process. Workers
outlive the query, so a worker opens a ``.cohana`` file and parses a
chunk once, not once per query. What a per-query pool got for free is
spelled out here instead:

* **Stale files.** A task names its table by path *and*
  ``content_digest``; a worker whose cached table for that path has
  another digest drops it as invalid and reloads, so a file rewritten
  in place is never answered from the old bytes.
* **Bounded worker memory.** Each worker keeps at most
  :data:`WORKER_TABLE_SLOTS` tables in one
  :class:`~repro.common.lru.LRUCache`, so shard files retired by
  compaction or GC do not stay mapped for the life of the process.
* **Failure containment.** A raising task cancels *its query's*
  queued tasks and leaves the pool up. A dead worker breaks the
  executor: the queries in flight get an
  :class:`~repro.errors.ExecutionError` and the next submit starts a
  fresh pool.
* **Fork-time state.** Forked workers know the kernels registered
  before the fork, so
  :func:`~repro.cohana.pipeline.register_kernel` shuts the pool down
  and the next query forks workers that see the current registry.
* **Inherited state.** Workers are forked from whatever the process is
  doing at its first ``processes`` query — under the HTTP server, with
  the listener and client connections open. A worker drops every
  inherited socket and resets the signal set-up at start-up, and exits
  when its parent dies (:func:`_worker_init`).
* **Sizing.** The pool holds as many workers as the largest in-flight
  window any query has asked for (``min(jobs, tasks)``); a query that
  asks for fewer bounds its own window instead of resizing the pool.
* **Lifecycle.** :func:`shutdown` is the one way down: ``atexit``, the
  HTTP server's drain and tests call it; the next query restarts the
  pool.
"""

from __future__ import annotations

import atexit
import os
import signal
import stat
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from concurrent.futures.process import BrokenProcessPool
from itertools import islice
from typing import Iterable, Iterator

from repro.cohana.operators import lower_plan
from repro.common.lru import LRUCache
from repro.errors import ExecutionError
from repro.storage.format import load
from repro.storage.reader import CompressedActivityTable

#: Tables one worker keeps open. A constant, not a knob: a miss costs
#: one lazy ``load`` (what every query paid before the pool persisted).
WORKER_TABLE_SLOTS = 8

#: How often a worker checks that its parent is still alive.
PARENT_POLL_SECONDS = 0.5

#: Per-worker-process table cache, path -> lazily loaded table. It
#: lives as long as the worker; an entry is valid only while its
#: ``content_digest`` is the one the task asks for.
# repolint: ignore[no-global-memo] -- one per worker process, which serves one pool
_WORKER_TABLES = LRUCache(WORKER_TABLE_SLOTS)


def _worker_table(path: str, digest: str | None) -> CompressedActivityTable:
    """This worker's table for ``path``, reloaded unless the cached one
    has the content ``digest`` names."""
    table = _WORKER_TABLES.get(
        path, valid=lambda cached: cached.content_digest == digest)
    if table is not None:
        return table
    table = load(path)
    if table.content_digest != digest:
        raise ExecutionError(
            f"{path} changed on disk after the table was loaded (file "
            f"is {(table.content_digest or '?')[:12]}..., the query "
            f"planned against {(digest or '?')[:12]}...); reload the "
            f"table")
    _WORKER_TABLES.put(path, table)
    return table


def scan_run(path: str, digest: str | None, kernel_name: str, plan,
             indices: list[int]):
    """Scan a run of chunks inside a worker process and return them as
    one unfolded partial, their buckets concatenated in chunk order.

    The task carries only the file's path and content digest, the
    kernel name, the (picklable) plan and the run's chunk indices; the
    worker opens the table by path — lazily memory-mapped, so only the
    chunks this worker is asked to scan are ever deserialized here —
    and keeps it across queries. Nothing is folded here: the parent
    folds every run once, in task order, exactly as serial does.
    """
    # Imported here: the pipeline imports this module at its own
    # import time.
    from repro.cohana.pipeline import concatenate, get_kernel
    table = _worker_table(path, digest)
    # Re-lower in the worker: the task ships only picklable data;
    # lowering is cheap object construction.
    physical = lower_plan(plan, get_kernel(kernel_name))
    return concatenate(plan.query, (
        physical.execute_chunk(table, table.chunks[index])
        for index in indices))


def _worker_init(parent_pid: int) -> None:
    """Worker start-up: shed what a forked worker inherits from a
    long-lived parent, and tie the worker's life to the parent's. A
    per-query pool held these for one query; a persistent one would
    hold them for the life of the process.

    * **Signals.** Under the HTTP server the inherited set-up is
      asyncio's, whose wake-up socket the fork shares with the server:
      a SIGTERM sent to a worker (the executor does so when the pool
      breaks) would not stop the worker and would drain the server
      instead.
    * **Sockets.** The fork copies the parent's listening socket and
      every client connection open at that moment; while a worker holds
      a copy, a connection the server closes never reaches EOF at the
      client and the port stays bound after the server dies. The
      executor's own channels are pipes, so every inherited socket goes.
    * **Orphans.** A SIGKILLed parent runs no ``atexit``; its workers
      would block on their task pipe for ever (sibling workers hold its
      write end), so each watches for the parent's death itself.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    _drop_inherited_sockets()
    threading.Thread(target=_exit_with_parent, args=(parent_pid,),
                     daemon=True).start()


def _drop_inherited_sockets() -> None:
    """Point every socket fd of this process at ``/dev/null``. Replaced
    rather than closed: socket objects copied from the parent still
    name these fd numbers, and one finalized later must not close a
    table file that took a freed number."""
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return  # no /proc: nothing to enumerate inherited fds with
    null = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
        except OSError:
            pass  # the listing's own fd, already closed
    os.close(null)


def _exit_with_parent(parent_pid: int) -> None:
    """Exit this worker once ``parent_pid`` is no longer its parent."""
    while os.getppid() == parent_pid:
        time.sleep(PARENT_POLL_SECONDS)
    os._exit(1)


class WorkerPool:
    """A :class:`ProcessPoolExecutor` that starts on first use, grows
    to the largest worker count asked for, and restarts after
    :meth:`shutdown` or a worker's death. Thread-safe: concurrent
    queries (the HTTP tier's engine threads) submit to the same pool.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._size = 0

    @property
    def size(self) -> int:
        """Worker processes of the current pool (0 when stopped)."""
        return self._size

    def submit(self, workers: int, fn, *args) -> Future:
        """Submit ``fn(*args)`` to a pool of at least ``workers``
        processes."""
        with self._lock:
            if self._pool is not None and self._size >= workers:
                try:
                    return self._pool.submit(fn, *args)
                except BrokenProcessPool:
                    pass  # a worker died since the last query: restart
            # Growing replaces the executor (its size is fixed at
            # construction); tasks already submitted to the old one
            # still complete.
            self._stop(wait=False)
            self._size = workers
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init, initargs=(os.getpid(),))
            return self._pool.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers (after the tasks already submitted); the
        next :meth:`submit` starts a fresh pool."""
        with self._lock:
            self._stop(wait)

    def _stop(self, wait: bool) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None
            self._size = 0


_POOL = WorkerPool()


def shutdown(wait: bool = True) -> None:
    """Stop the process-wide scan workers. Safe to call at any time,
    from any thread, whether or not the pool ever started: queries in
    flight finish the tasks they have submitted, and the next
    ``processes`` query starts a fresh pool."""
    _POOL.shutdown(wait)


atexit.register(shutdown)


def scan_in_workers(calls: Iterable[tuple[object, tuple]],
                    workers: int) -> Iterator[tuple[object, object]]:
    """Run ``scan_run(*args)`` for every ``(key, args)`` in ``calls``
    on the shared pool, at most ``workers`` running at a time, yielding
    ``(key, result)`` in the order of ``calls``.

    On a pool larger than ``workers`` the query keeps ``workers`` tasks
    submitted, since every submitted task may run. A pool of exactly
    ``workers`` bounds the running tasks itself, so a second rank
    queues behind them: a worker starts its next run without a round
    trip through this process, while concurrent queries still
    interleave instead of waiting behind a whole scan.

    A task's failure is raised as soon as it is seen, not when its turn
    to be yielded comes. On any failure (or the consumer abandoning the
    scan) the tasks still queued are cancelled and the ones already
    running are waited for, so nothing of a failed query is still
    scanning — or still about to take a worker down — when its error
    propagates. The pool stays up for the next query; a dead worker
    surfaces as :class:`ExecutionError`.
    """
    calls = iter(calls)
    queue: deque[tuple[Future, object]] = deque()

    def refill() -> None:
        window = workers if _POOL.size > workers else 2 * workers
        for key, args in islice(calls, max(0, window - len(queue))):
            queue.append((_POOL.submit(workers, scan_run, *args), key))

    try:
        refill()
        while queue:
            running = [future for future, _ in queue if not future.done()]
            if not queue[0][0].done():
                wait_futures(running, return_when=FIRST_COMPLETED)
            for future, _ in queue:
                if future.done():
                    future.result()  # raises a failed task's error now
            ready = []
            while queue and queue[0][0].done():
                future, key = queue.popleft()
                ready.append((key, future.result()))
            # Refill before yielding: workers scan the next runs while
            # the consumer merges these.
            refill()
            yield from ready
    except BrokenProcessPool as exc:
        raise ExecutionError(
            "a scan worker process died mid-query; the pool restarts "
            "with the next query") from exc
    finally:
        # Only futures that refuse to cancel are awaited: a cancelled
        # one is not "done" until its executor says so, and a broken
        # executor never does.
        wait_futures([future for future, _ in queue
                      if not future.cancel()])
