"""Clean twin: the memo is the shared LRU; plain dicts stay legal."""

from repro.common.lru import LRUCache

_PLANS = LRUCache(16)
_SEEN: dict[str, int] = {}


def remember(key, value):
    _PLANS.put(key, value)


def forget_newest(stack):
    return stack.popitem()
