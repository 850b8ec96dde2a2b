"""Seeded violation: the service keeps its own store beside the
engine's."""

from repro.cohana.pipeline import ChunkScheduler, SegmentPartials


def execute(cache, key, table, plan, token):
    partials = SegmentPartials(
        lambda digest: cache.get((key, digest)),
        lambda digest, p: cache.put((key, digest), p), token)
    return ChunkScheduler(table, plan, "vectorized",
                          partials=partials).run()
