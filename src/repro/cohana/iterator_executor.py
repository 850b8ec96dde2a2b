"""The faithful tuple-at-a-time per-chunk kernel (Algorithms 1 and 2).

This kernel follows the paper's pseudocode as closely as Python allows:
user-block processing through the modified TableScan, ``GetBirthTuple``
scanning each block for the first birth-action tuple, ``SkipCurUser`` on
unqualified users, and array-based hash aggregation.

It produces bit-identical results to the vectorized kernel and the
oracle, but runs one tuple at a time — the benchmark suite uses the gap
between the two kernels as an ablation showing why the paper's scan
throughput needs compiled/vectorized loops (Python-level iteration is the
"interpreted overhead" case).

Like every kernel, it only sees one chunk at a time: chunk iteration,
pruning and the cross-chunk merge live in :mod:`repro.cohana.pipeline`.
At the end of a chunk scan, the array-based accumulators are drained,
once, into the pipeline's columnar :class:`~repro.cohana.pipeline.ChunkPartial`
(USERCOUNT drains to a plain count — exact because no user spans two
chunks, Section 4.5).
"""

from __future__ import annotations

import numpy as np

from repro.cohana.aggregate import (
    ArrayAggregateTable,
    CohortCodec,
    CohortSizeTable,
)
from repro.cohana.pipeline import (
    ChunkKernel,
    ChunkPartial,
    register_kernel,
    state_array,
)
from repro.cohana.planner import CohortPlan
from repro.cohana.tablescan import ChunkScan, LazyRow
from repro.cohort.concepts import normalize_age
from repro.cohort.operators import cohort_label
from repro.storage.chunk import Chunk
from repro.storage.reader import CompressedActivityTable


def scan_chunk(table: CompressedActivityTable, chunk: Chunk,
               plan: CohortPlan) -> ChunkPartial:
    """The pure per-chunk kernel: one chunk in, one ChunkPartial out."""
    query = plan.query
    partial = ChunkPartial()
    partial.rows_scanned += chunk.n_rows
    codec = CohortCodec()
    sizes = CohortSizeTable()
    aggregates = ArrayAggregateTable(query.aggregates)
    _scan_chunk(table, chunk, plan, codec, sizes, aggregates, partial)

    partial.labels = codec.labels()
    partial.sizes = np.array([sizes.count(code)
                              for code in range(len(codec))],
                             dtype=np.int64)
    cells = list(aggregates.buckets())
    if cells:
        partial.bucket_label = np.array([code for code, _, _ in cells],
                                        dtype=np.int64)
        partial.bucket_age = np.array([age for _, age, _ in cells],
                                      dtype=np.int64)
        partial.states = [_drain(agg.func, [cell[j] for _, _, cell in cells])
                          for j, agg in enumerate(query.aggregates)]
    return partial


def _drain(func: str, accumulators: list):
    """One aggregate's accumulators as the pipeline's state arrays."""
    if func == "AVG":
        return (state_array([acc.total for acc in accumulators]),
                state_array([acc.count for acc in accumulators]))
    return state_array([acc.result() for acc in accumulators])


def _scan_chunk(table, chunk, plan: CohortPlan, codec: CohortCodec,
                sizes: CohortSizeTable, aggregates: ArrayAggregateTable,
                partial: ChunkPartial) -> None:
    """Algorithm 2's Open() loop, fused with Algorithm 1's skipping."""
    query = plan.query
    scan = ChunkScan(table, chunk)
    schema = table.schema
    time_name = schema.time.name
    while scan.has_more_users():
        gid, first, count = scan.get_next_user()
        partial.users_seen += 1
        birth_row = _get_birth_tuple(scan, plan.birth_action_gid)
        if birth_row is None:
            scan.skip_cur_user()
            continue
        # Birth selection on the single birth tuple (Algorithm 1 line 17).
        if plan.pushdown and not query.birth_condition.evaluate_row(
                birth_row, birth_row, None):
            scan.skip_cur_user()
            continue
        if not plan.pushdown and not query.birth_condition.evaluate_row(
                birth_row, birth_row, None):
            # Without push-down the user is still fully scanned (the age
            # selection runs first), then discarded — the cost the
            # optimization avoids.
            for _ in scan.peek_block_rows():
                pass
            scan.skip_cur_user()
            continue
        partial.users_qualified += 1
        label = cohort_label(birth_row, query, schema)
        code = codec.code(label)
        sizes.increment(code)
        birth_time = birth_row[time_name]
        scan.rewind_current_user()
        row = scan.get_next()
        while row is not None:
            raw = row[time_name] - birth_time
            if raw > 0:
                age = normalize_age(raw, query.age_unit)
                if query.age_condition.evaluate_row(row, birth_row, age):
                    aggregates.update(code, age, row, gid)
                    partial.tuples_aggregated += 1
            row = scan.get_next()


def _get_birth_tuple(scan: ChunkScan, birth_gid: int) -> LazyRow | None:
    """Algorithm 1's GetBirthTuple: the block's first birth-action tuple.

    Uses the action column's chunk ids directly (no string decode) and the
    time-ordering property: the first match is the minimum-time match.
    """
    for row in scan.peek_block_rows():
        if scan.action_gid_at(row.position) == birth_gid:
            return row
    return None


KERNEL = register_kernel(ChunkKernel(name="iterator", scan=scan_chunk,
                                     decoded_labels=True))
