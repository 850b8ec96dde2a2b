"""Seeded violation: a hand-rolled LRU beside the shared one."""

import collections
import threading
from collections import OrderedDict

_LOCK = threading.Lock()
_PLANS = OrderedDict()
_TOKENS = collections.OrderedDict()


def remember(key, value, bound=16):
    with _LOCK:
        _PLANS[key] = value
        _PLANS.move_to_end(key)
        while len(_PLANS) > bound:
            _PLANS.popitem(last=False)


def forget_oldest(memo):
    memo.popitem(False)
