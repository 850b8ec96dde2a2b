"""Clean twin: the view hands the scheduler its store of partials."""

from repro.cohana.pipeline import ChunkScheduler, concatenate


def serve(view, table, plan, partials):
    return ChunkScheduler(table, plan, "vectorized",
                          partials=partials).run()


def run_of(query, partials, sponge):
    sponge.soak(partials)
    return concatenate(query, partials)
