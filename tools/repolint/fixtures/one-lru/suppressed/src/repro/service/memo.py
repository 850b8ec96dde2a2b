"""Suppressed twin: an ordered mapping that is not a cache."""

from collections import OrderedDict


def columns_in_order(pairs):
    return OrderedDict(pairs)  # repolint: ignore[one-lru] -- preserves declaration order for rendering; nothing is evicted
