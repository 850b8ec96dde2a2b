"""Clean twin: the catalog keeps a view's files, and the engine runs
its reads."""


def file_partials(engine, store, view, live):
    for digest in live - store.prune_partials(view.fingerprint, live):
        partial = engine.partials.peek((view.fingerprint, digest))
        if partial is not None:
            store.put_partial(view.fingerprint, digest, partial)
