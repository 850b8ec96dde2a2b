"""Clean twin: the cache is the engine's; module constants stay legal."""

from repro.common.lru import LRUCache

PARTIAL_SLOTS = 1024


class Engine:
    def __init__(self):
        self.partials = LRUCache(PARTIAL_SLOTS)


def scratch_memo():
    memo = LRUCache(8)
    return memo
