"""The read path taken apart, one span per layer.

``engine.query`` is parse → bind → plan → lower → prune → scan each
surviving chunk → merge → build rows. The traced run calls those same
public functions itself, in that order, with a span around each, and
must return the digest ``engine.query`` returns (the traced run checks
that for every template).

A sharded table is planned and scanned shard by shard:
``shard_value_partial`` is the public unit (it prunes, scans and
decodes one shard's labels), so a shard is one
``cohana.pipeline.shard_scan`` span and its chunks are not split.
"""

from __future__ import annotations

from repro.cohana import (
    ChunkScheduler,
    ExecStats,
    ExecutionConfig,
    bind_cohort_query,
    parse_cohort_query,
    plan_query,
)
from repro.cohana.pipeline import (
    MergeState,
    build_rows,
    get_kernel,
    shard_value_partial,
)
from repro.cohort.result import CohortResult

SERIAL = ExecutionConfig()


def traced_read(engine, text: str, tracer):
    """``engine.query_with_stats(text)`` (serial, vectorized kernel)
    with a span per layer; returns ``(result, stats)``."""
    with tracer.span("cohana.parser.parse"):
        parsed = parse_cohort_query(text)
    table = engine.table(parsed.table)
    with tracer.span("cohana.binder.bind"):
        query = bind_cohort_query(parsed, table.schema)
    kernel = get_kernel("vectorized")
    state = MergeState(query)
    if table.is_sharded:
        stats = ExecStats(shards_total=len(table.shards))
        for shard in table.shards:
            with tracer.span("cohana.pipeline.shard_scan",
                             rows=shard.n_rows):
                before = stats.chunks_scanned
                partial = shard_value_partial(shard, query, kernel,
                                              SERIAL, stats=stats)
                stats.shards_scanned += stats.chunks_scanned > before
            with tracer.span("cohana.pipeline.merge"):
                # The partial's row counters are already in ``stats``.
                state.absorb(partial, stats, collect_stats=False)
        decoded = True
    else:
        with tracer.span("cohana.planner.plan"):
            plan = plan_query(query, table)
        with tracer.span("cohana.operators.lower"):
            scheduler = ChunkScheduler(table, plan, kernel, SERIAL)
        stats = ExecStats(chunks_total=table.n_chunks)
        with tracer.span("cohana.pipeline.prune"):
            tasks = scheduler.tasks(stats)
        for task in tasks:
            with tracer.span("cohana.operators.execute_chunk",
                             rows=task.chunk.n_rows):
                partial = scheduler.physical.execute_chunk(table,
                                                           task.chunk)
            with tracer.span("cohana.pipeline.merge"):
                state.absorb(partial, stats)
        decoded = kernel.decoded_labels
    with tracer.span("cohana.pipeline.build_rows"):
        rows = build_rows(table, state, decoded)
    result = CohortResult(columns=query.output_columns, rows=rows,
                          n_cohort_columns=len(query.cohort_by))
    tracer.count("chunks_total", stats.chunks_total)
    tracer.count("chunks_pruned", stats.chunks_pruned)
    tracer.count("chunks_pruned_zone", stats.chunks_pruned_zone)
    return result, stats
