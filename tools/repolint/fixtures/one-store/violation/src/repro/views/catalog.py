"""Seeded violation: a view reads its persisted partials past the
engine's cache, decoding every shard's file on each serve."""

from repro.cohana import pipeline


def serve(view, table, plan, store, token):
    partials = pipeline.SegmentPartials(
        lambda digest: store.get_partial(view.fingerprint, digest),
        lambda digest, p: store.put_partial(view.fingerprint, digest, p),
        token)
    return pipeline.ChunkScheduler(table, plan, "vectorized",
                                   partials=partials).run()
