"""Seeded violation: a process-wide plan cache beside the engine's."""

from repro.common import lru
from repro.common.lru import LRUCache

SHARD_PLANS = LRUCache(512)
_SEEN: lru.LRUCache = lru.LRUCache(64)


class Scheduler:
    plans = LRUCache(16)
