"""Clean twin: the engine owns the catalog lock and may read both."""

import threading


class Engine:
    def __init__(self):
        self._catalog = {}
        self._versions = {}
        self._catalog_lock = threading.RLock()

    def table(self, name):
        return self._catalog[name]

    def version_token(self, name):
        with self._catalog_lock:
            self.table(name)
            return self._versions[name]
