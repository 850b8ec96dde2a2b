"""Clean twin: the engine owns the in-memory store of partials."""

from repro.cohana.pipeline import ChunkScheduler, SegmentPartials


class Engine:
    def __init__(self, cache):
        self.partials = cache

    def execute(self, table, plan, key):
        store = SegmentPartials(
            lambda digest: self.partials.get((key, digest)),
            lambda digest, p: self.partials.put((key, digest), p),
            table.content_digest)
        return ChunkScheduler(table, plan, "vectorized",
                              partials=store).run()
