"""The vectorized columnar executor — the MonetDB stand-in.

Executes the same logical plans as :mod:`repro.relational.row_executor`
but operates on whole column arrays: filters are boolean masks, joins are
factorize-and-gather (a vectorized hash join), and group-bys run on dense
integer key codes with ``bincount``/``reduceat`` reductions. This is the
"state-of-the-art columnar database" whose gap to the row engine the
paper's Figure 11 shows.

Internally each operator produces ``(names, columns, n_rows)`` where
``columns`` is a list of numpy arrays positionally parallel to ``names``
(positional, not a dict, so duplicate names from self-joins survive).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ExecutionError
from repro.relational.expressions import (
    FuncCall,
    RelSchema,
    Star,
    eval_batch,
)
from repro.relational.logical import (
    Aggregate,
    Distinct,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Sort,
    SubqueryScan,
)
from repro.relational.row_executor import split_equi_conjuncts
from repro.relational.rows import RelTable, _as_column_array


def execute(plan: LogicalPlan,
            lookup: Callable[[str], RelTable]) -> RelTable:
    """Run ``plan`` vectorized; ``lookup`` resolves base-table names."""
    names, columns, n = _run(plan, lookup)
    out_names = [n_.rpartition(".")[2] for n_ in names]
    rows = [tuple(_py(col[i]) for col in columns) for i in range(n)]
    return RelTable(out_names, rows)


def _py(value):
    if isinstance(value, np.generic):
        return value.item()
    return value


def _run(plan: LogicalPlan, lookup):
    """Returns (qualified names, [column arrays], n_rows)."""
    if isinstance(plan, Scan):
        table = lookup(plan.table)
        base = table.as_batch()
        names = plan.output_names()
        columns = [base[q.rpartition(".")[2]] for q in names]
        return names, columns, len(table)
    if isinstance(plan, SubqueryScan):
        names, columns, n = _run(plan.child, lookup)
        return plan.output_names(), columns, n
    if isinstance(plan, Filter):
        names, columns, n = _run(plan.child, lookup)
        schema = RelSchema(names)
        mask = eval_batch(plan.predicate, columns, schema, n).astype(bool)
        return names, [c[mask] for c in columns], int(mask.sum())
    if isinstance(plan, Project):
        names, columns, n = _run(plan.child, lookup)
        schema = RelSchema(names)
        out = [_materialize(eval_batch(e, columns, schema, n), n)
               for e in plan.exprs]
        return list(plan.names), out, n
    if isinstance(plan, Join):
        return _join(plan, lookup)
    if isinstance(plan, Aggregate):
        return _aggregate(plan, lookup)
    if isinstance(plan, Sort):
        names, columns, n = _run(plan.child, lookup)
        schema = RelSchema(names)
        order = np.arange(n)
        for key, ascending in zip(reversed(plan.keys),
                                  reversed(plan.ascending)):
            values = eval_batch(key, columns, schema, n)
            ranks = _rank(_materialize(values, n))
            sorted_idx = np.argsort(ranks[order], kind="stable")
            if not ascending:
                sorted_idx = sorted_idx[::-1]
            order = order[sorted_idx]
        return names, [c[order] for c in columns], n
    if isinstance(plan, Limit):
        names, columns, n = _run(plan.child, lookup)
        count = min(plan.count, n)
        return names, [c[:count] for c in columns], count
    if isinstance(plan, Distinct):
        names, columns, n = _run(plan.child, lookup)
        codes = _combine_codes([_factorize(c)[0] for c in columns], n)
        _, first = np.unique(codes, return_index=True)
        keep = np.sort(first)
        return names, [c[keep] for c in columns], len(keep)
    raise ExecutionError(f"unknown plan node {type(plan).__name__}")


def _materialize(value, n: int) -> np.ndarray:
    if np.isscalar(value) or not isinstance(value, np.ndarray):
        return np.full(n, value)
    return value


def _rank(values: np.ndarray) -> np.ndarray:
    """Dense sortable int codes for any (possibly object) key array."""
    if values.dtype != object:
        return values
    order = sorted(range(len(values)), key=lambda i: str(values[i]))
    ranks = np.empty(len(values), dtype=np.int64)
    rank = 0
    prev = None
    for i in order:
        if prev is None or str(values[i]) != prev:
            prev = str(values[i])
            rank += 1
        ranks[i] = rank
    return ranks


# ---------------------------------------------------------------------------
# Factorization helpers
# ---------------------------------------------------------------------------


def _factorize(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense integer codes for an array; returns (codes, cardinality)."""
    if len(arr) == 0:
        return np.empty(0, dtype=np.int64), 0
    try:
        _, inverse = np.unique(arr, return_inverse=True)
        return inverse.astype(np.int64), int(inverse.max()) + 1
    except TypeError:
        mapping: dict = {}
        codes = np.empty(len(arr), dtype=np.int64)
        for i, v in enumerate(arr):
            codes[i] = mapping.setdefault(v, len(mapping))
        return codes, len(mapping)


def _combine_codes(code_arrays: list[np.ndarray], n: int) -> np.ndarray:
    """Mix several dense code arrays into one (row-wise key codes)."""
    if not code_arrays:
        return np.zeros(n, dtype=np.int64)
    combined = code_arrays[0].astype(np.int64)
    for codes in code_arrays[1:]:
        k = int(codes.max()) + 1 if len(codes) else 1
        combined = combined * k + codes
    return combined


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


def _join(plan: Join, lookup):
    l_names, l_cols, nl = _run(plan.left, lookup)
    r_names, r_cols, nr = _run(plan.right, lookup)
    l_schema = RelSchema(l_names)
    r_schema = RelSchema(r_names)
    out_names = l_names + r_names
    left_keys, right_keys, residual = split_equi_conjuncts(
        plan.predicate, l_schema, r_schema)
    if left_keys and nl and nr:
        l_codes_list, r_codes_list = [], []
        for lk, rk in zip(left_keys, right_keys):
            lvals = eval_batch(lk, l_cols, l_schema, nl)
            rvals = eval_batch(rk, r_cols, r_schema, nr)
            both = np.concatenate([np.asarray(lvals, dtype=object),
                                   np.asarray(rvals, dtype=object)])
            codes, _ = _factorize(both)
            l_codes_list.append(codes[:nl])
            r_codes_list.append(codes[nl:])
        l_key = _combine_codes(l_codes_list, nl)
        r_key = _combine_codes(r_codes_list, nr)
        size = max(int(l_key.max(initial=0)),
                   int(r_key.max(initial=0))) + 1
        counts = np.bincount(r_key, minlength=size)
        starts = np.cumsum(counts) - counts
        r_sorted = np.argsort(r_key, kind="stable")
        per_left = counts[l_key]
        out_left = np.repeat(np.arange(nl), per_left)
        total = int(per_left.sum())
        row_starts = np.cumsum(per_left) - per_left
        within = np.arange(total) - np.repeat(row_starts, per_left)
        out_right = r_sorted[np.repeat(starts[l_key], per_left) + within]
    else:
        # cross join
        out_left = np.repeat(np.arange(nl), nr)
        out_right = np.tile(np.arange(nr), nl)
        residual = plan.predicate
    columns = [c[out_left] for c in l_cols] + [c[out_right]
                                               for c in r_cols]
    n = len(out_left)
    if residual is not None:
        schema = RelSchema(out_names)
        mask = eval_batch(residual, columns, schema, n).astype(bool)
        columns = [c[mask] for c in columns]
        n = int(mask.sum())
    return out_names, columns, n


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _aggregate(plan: Aggregate, lookup):
    names, columns, n = _run(plan.child, lookup)
    schema = RelSchema(names)
    out_names = plan.output_names()

    if plan.group_exprs:
        key_values = [
            _materialize(eval_batch(e, columns, schema, n), n)
            for e in plan.group_exprs]
        codes = _combine_codes([_factorize(v)[0] for v in key_values], n)
        groups, first, inverse = np.unique(codes, return_index=True,
                                           return_inverse=True)
        n_groups = len(groups)
    else:
        key_values = []
        inverse = np.zeros(n, dtype=np.int64)
        first = np.zeros(1 if n else 0, dtype=np.int64)
        n_groups = 1  # global aggregate always yields one row

    out_columns: list[np.ndarray] = []
    for values in key_values:
        out_columns.append(values[first])
    for call in plan.agg_calls:
        if not plan.group_exprs and n == 0:
            out_columns.append(_as_column_array([_empty_result(call)]))
        else:
            out_columns.append(_agg_column(call, inverse, n_groups,
                                           columns, schema, n))
    return out_names, out_columns, n_groups


def _empty_result(call: FuncCall):
    if call.name == "COUNT":
        return 0
    if call.name == "SUM":
        return 0
    return None


def _agg_column(call: FuncCall, group: np.ndarray, n_groups: int,
                columns: list, schema: RelSchema, n: int) -> np.ndarray:
    name = call.name
    if name == "COUNT":
        if call.distinct:
            values = eval_batch(call.args[0], columns, schema, n)
            codes, n_codes = _factorize(np.asarray(values, dtype=object))
            # Both factors are dense: one 1-D key per (group, value).
            pairs = np.unique(group * n_codes + codes)
            return np.bincount(pairs // n_codes,
                               minlength=n_groups).astype(np.int64)
        return np.bincount(group, minlength=n_groups).astype(np.int64)
    values = eval_batch(call.args[0], columns, schema, n) \
        if call.args and not isinstance(call.args[0], Star) \
        else np.ones(n, dtype=np.int64)
    values = _materialize(values, n)
    if name == "SUM":
        sums = np.bincount(group, weights=values.astype(np.float64),
                           minlength=n_groups)
        if values.dtype.kind == "i":
            return np.round(sums).astype(np.int64)
        return sums
    if name == "AVG":
        sums = np.bincount(group, weights=values.astype(np.float64),
                           minlength=n_groups)
        counts = np.bincount(group, minlength=n_groups)
        out = np.empty(n_groups, dtype=object)
        for i in range(n_groups):
            out[i] = sums[i] / counts[i] if counts[i] else None
        return out
    if name in ("MIN", "MAX"):
        order = np.argsort(group, kind="stable")
        sorted_vals = values[order]
        present = np.unique(group)
        boundaries = np.searchsorted(group[order], present)
        if len(sorted_vals) == 0:
            reduced = sorted_vals
        elif name == "MIN":
            reduced = np.minimum.reduceat(sorted_vals, boundaries)
        else:
            reduced = np.maximum.reduceat(sorted_vals, boundaries)
        out = np.empty(n_groups, dtype=object)
        for i in range(n_groups):
            out[i] = None
        for slot, value in zip(present, reduced):
            out[slot] = _py(value)
        return out
    raise ExecutionError(f"unknown aggregate {name!r}")
