"""Suppressed twin: one cache per worker process is the process's."""

from repro.common.lru import LRUCache

_WORKER_TABLES = LRUCache(4)  # repolint: ignore[no-global-memo] -- a worker process serves one pool; its tables live as long as it does
