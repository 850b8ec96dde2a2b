"""Clean twin: the one module that builds the LRU by hand."""

from collections import OrderedDict


class LRUCache:
    def __init__(self, max_entries):
        self.max_entries = max_entries
        self._entries = OrderedDict()

    def put(self, key, value):
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
