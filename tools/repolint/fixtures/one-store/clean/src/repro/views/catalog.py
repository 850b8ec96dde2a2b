"""Clean twin: a view hands the scheduler its persisted store."""

from repro.cohana import pipeline


def serve(view, table, plan, store, token):
    partials = pipeline.SegmentPartials(
        lambda digest: store.get_partial(view.fingerprint, digest),
        lambda digest, p: store.put_partial(view.fingerprint, digest, p),
        token)
    return pipeline.ChunkScheduler(table, plan, "vectorized",
                                   partials=partials).run()
