"""Correctness: what a right answer is and how the paths are compared.

A right answer is the digest (``service.protocol.result_digest``) the
row-by-row oracle ``repro.cohort.operators.evaluate`` gives. The oracle
is far too slow for the scaled tables, so the chain is:

1. oracle == path under test, on the unscaled base table;
2. scaled answer == base answer with its counts multiplied by the scale
   factor (the replication law of ``scale_dataset``: every user exists
   ``factor`` times, so cohort sizes, counts and sums scale and
   averages, minima and maxima do not);
3. all paths (serial, processes, decoded scan mode, sharded, view,
   HTTP) agree with each other on the table the workload timed.
"""

from __future__ import annotations

from repro.cohana import CohanaEngine
from repro.cohort.operators import evaluate
from repro.cohort.result import CohortResult
from repro.service import result_digest
from repro.table import ActivityTable
from repro.workloads import queries

from perfbench.data import TABLE, Op
from perfbench.harness import Check

#: Aggregates whose value grows with the number of user copies.
SCALING_AGGREGATES = ("SUM", "COUNT", "USERCOUNT")


def replicated(result: CohortResult, query, factor: int) -> CohortResult:
    """``result`` as it must look on ``scale_dataset(table, factor)``."""
    n = result.n_cohort_columns
    rows = []
    for row in result.rows:
        values = list(row)
        values[n] *= factor  # COHORTSIZE
        for i, aggregate in enumerate(query.aggregates):
            position = n + 2 + i
            if (aggregate.func in SCALING_AGGREGATES
                    and values[position] is not None):
                values[position] *= factor
        rows.append(tuple(values))
    return CohortResult(columns=list(result.columns), rows=rows,
                        n_cohort_columns=n)


def base_engine(base: ActivityTable, chunk_rows: int) -> CohanaEngine:
    engine = CohanaEngine()
    engine.create_table(TABLE, base, target_chunk_rows=chunk_rows)
    return engine


def oracle(reads: list[Op], table: ActivityTable,
           got: list[str | None]) -> list[Check]:
    """Step 1: the row-by-row oracle over ``table`` must give the
    digests in ``got``."""
    checks = []
    for op, digest in zip(reads, got):
        expected = result_digest(
            evaluate(queries.bind(op.text, table.schema), table))
        checks.append(Check(f"{op.template} oracle", digest == expected,
                            f"{digest} vs {expected}"))
    return checks


def oracle_and_law(reads: list[Op], base: ActivityTable,
                   chunk_rows: int, factor: int,
                   timed_digests: list[str | None]) -> list[Check]:
    """Steps 1 and 2 for ``reads``, whose answers on the scaled table
    were ``timed_digests``."""
    engine = base_engine(base, chunk_rows)
    small = [engine.query(op.text) for op in reads]
    checks = oracle(reads, base, [result_digest(r) for r in small])
    for op, result, timed in zip(reads, small, timed_digests):
        law = result_digest(
            replicated(result, engine.parse(op.text), factor))
        checks.append(Check(f"{op.template} replication law x{factor}",
                            timed == law, f"{timed} vs {law}"))
    return checks


def parity(name: str, reads: list[Op], got: list[str | None],
           reference) -> list[Check]:
    """Step 3: ``reference(text)`` must give the digests in ``got``."""
    checks = []
    for op, digest in zip(reads, got):
        expected = result_digest(reference(op.text))
        checks.append(Check(f"{op.template} {name}", digest == expected,
                            f"{digest} vs {expected}"))
    return checks
