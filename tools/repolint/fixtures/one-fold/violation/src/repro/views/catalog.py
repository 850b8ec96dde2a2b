"""Seeded violation: a view that merges its partials with its own loop."""

from repro.cohana import pipeline
from repro.cohana.pipeline import MergeState, build_rows


def serve(view, table, store, units):
    state = MergeState(view.query)
    for _shard, digest in units:
        state.absorb(store.get(digest), None, collect_stats=False)
    return build_rows(table, state, decoded_labels=True)


def fold_again(query, partials):
    state = pipeline.MergeState(query)
    for partial in partials:
        state.absorb(partial, None)
    return state.partial()
