"""A thread-safe, size-bounded LRU cache with observable counters.

Every bounded memo in the tree is one of these: the query service's
result cache, the engine's segment-partial cache, the
shard-verification memo and each scan worker's table cache.
Deliberately minimal — hashable keys, opaque values, a single lock —
so that one eviction policy and one counter shape describe all of
them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ServiceError


@dataclass
class CacheCounters:
    """Monotonic counters describing a cache's lifetime behaviour.

    ``hits``/``misses`` count :meth:`LRUCache.get` outcomes;
    ``evictions`` counts entries dropped by the LRU bound;
    ``invalidations`` counts entries removed because they were no
    longer valid (a stale entry found by ``get``, or an explicit
    :meth:`LRUCache.invalidate_where`).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations}


class LRUCache:
    """Least-recently-used mapping bounded to ``max_entries``.

    ``get`` refreshes recency and counts a hit or miss; ``peek`` does
    neither (used by EXPLAIN, which must not distort cache state);
    ``put`` inserts/refreshes and evicts past the bound, oldest first.
    """

    def __init__(self, max_entries: int = 128):
        if max_entries < 1:
            raise ServiceError(
                f"cache needs max_entries >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.counters = CacheCounters()
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key, valid=None):
        """The cached value (refreshing its recency), or None.

        An entry for which ``valid(value)`` is false is stale: it is
        dropped and counted as a miss and an invalidation.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None and valid and not valid(value):
                del self._entries[key]
                self.counters.invalidations += 1
                value = None
            if value is None:
                self.counters.misses += 1
            else:
                self._entries.move_to_end(key)
                self.counters.hits += 1
            return value

    def peek(self, key):
        """The cached value without touching recency or counters."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key, value) -> None:
        """Insert/refresh ``key`` as the most recently used entry."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.counters.evictions += 1

    def invalidate_where(self, predicate) -> int:
        """Drop every entry whose value satisfies ``predicate``;
        returns how many were removed (all counted as invalidations)."""
        with self._lock:
            doomed = [k for k, v in self._entries.items() if predicate(v)]
            for key in doomed:
                del self._entries[key]
            self.counters.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        """Drop everything (not counted as evictions)."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict[str, int]:
        """The counters plus the current and maximum entry counts."""
        with self._lock:
            return {**self.counters.as_dict(),
                    "entries": len(self._entries),
                    "max_entries": self.max_entries}
