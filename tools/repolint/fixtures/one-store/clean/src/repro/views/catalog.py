"""Clean twin: a view hands the engine its file store, which sits
behind the engine's cache."""

from repro.cohana import pipeline


def serve(engine, view, table, plan, store, token):
    partials = engine.partial_store(view.fingerprint, token, store,
                                    view.funcs)
    return pipeline.ChunkScheduler(table, plan, "vectorized",
                                   partials=partials).run()
