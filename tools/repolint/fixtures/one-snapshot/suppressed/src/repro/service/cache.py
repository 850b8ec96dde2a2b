"""Suppressed twin: two reads that are never paired into a cache key."""


# repolint: ignore[one-snapshot] -- display only: the token is printed beside the row count, nothing is stored under it
def describe(engine, name):
    rows = engine.table(name).n_rows
    return f"{name}: {rows} rows at {engine.version_token(name)}"
