"""Chunk-pipeline tests: executor parity across kernels and job counts,
pruning accounting, ExecutionConfig resolution, and merge streaming."""

import numpy as np
import pytest

from repro.errors import CatalogError, ExecutionError
from repro.cohana import (
    ChunkScheduler,
    CohanaEngine,
    ExecutionConfig,
    KERNELS,
)
from repro.cohana.pipeline import (
    ChunkPartial,
    ExecStats,
    MergeState,
    ScanTask,
    build_rows,
    finalize_partial,
    get_kernel,
    scan_runs,
    shard_value_partial,
)
from repro.cohort import AggregateSpec, CohortQuery
from repro.datagen import GameConfig, generate, scale_dataset
from repro.workloads import MAIN_QUERIES

from helpers import make_table1

TABLE = "GameActions"

Q1_TEXT = """
SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
FROM D
BIRTH FROM action = "launch" AND role = "dwarf"
AGE ACTIVITIES IN action = "shop"
COHORT BY country
"""

#: A query covering every aggregate function at once.
ALL_AGGS = """
SELECT country, COHORTSIZE, AGE, Sum(gold) AS s, Avg(gold) AS a,
       Min(gold) AS mn, Max(gold) AS mx, Count() AS c, UserCount() AS u
FROM GameActions
BIRTH FROM action = "launch"
AGE ACTIVITIES IN action = "shop"
COHORT BY country
"""


@pytest.fixture
def table1_engine():
    eng = CohanaEngine()
    eng.create_table("D", make_table1(), target_chunk_rows=4)
    return eng


@pytest.fixture(scope="module")
def game_engine():
    eng = CohanaEngine()
    table = scale_dataset(generate(GameConfig(n_users=57, seed=7)), 1)
    eng.create_table(TABLE, table, target_chunk_rows=512)
    return eng


class TestExecutorParity:
    """Same rows for every (kernel, jobs) combination — the acceptance
    bar for making the hot path parallel."""

    @pytest.mark.parametrize("executor", ("vectorized", "iterator"))
    def test_table1_jobs_parity(self, table1_engine, executor):
        base = table1_engine.query(Q1_TEXT, executor=executor, jobs=1)
        par = table1_engine.query(Q1_TEXT, executor=executor, jobs=4)
        assert par.rows == base.rows
        assert par.columns == base.columns

    @pytest.mark.parametrize("executor", ("vectorized", "iterator"))
    @pytest.mark.parametrize("qname", sorted(MAIN_QUERIES))
    def test_generated_dataset_jobs_parity(self, game_engine, executor,
                                           qname):
        text = MAIN_QUERIES[qname](TABLE)
        base = game_engine.query(text, executor=executor, jobs=1)
        par = game_engine.query(text, executor=executor, jobs=4)
        assert par.rows == base.rows

    def test_kernel_families_agree_on_all_aggregates(self, game_engine):
        vec = game_engine.query(ALL_AGGS, executor="vectorized", jobs=4)
        it = game_engine.query(ALL_AGGS, executor="iterator", jobs=4)
        assert vec.rows == it.rows
        assert len(vec.rows) > 0

    def test_stats_identical_across_jobs(self, game_engine):
        _, serial = game_engine.query_with_stats(ALL_AGGS, jobs=1)
        _, threaded = game_engine.query_with_stats(ALL_AGGS, jobs=4)
        assert serial == threaded
        assert threaded.chunks_scanned > 1  # the parallelism is real


class TestPruningAccounting:
    """Pruning is decided and counted once, in the scheduler."""

    @pytest.mark.parametrize("executor", ("vectorized", "iterator"))
    @pytest.mark.parametrize("jobs", (1, 4))
    def test_chunk_counters_add_up(self, game_engine, executor, jobs):
        _, stats = game_engine.query_with_stats(
            ALL_AGGS, executor=executor, jobs=jobs)
        assert stats.chunks_pruned + stats.chunks_scanned \
            == stats.chunks_total

    def test_pruned_chunks_are_skipped(self):
        # One user per chunk: 'fight' is absent from user 002's chunk,
        # so its action chunk-dictionary prunes that chunk.
        eng = CohanaEngine()
        eng.create_table("D", make_table1(), target_chunk_rows=2)
        text = Q1_TEXT.replace('action = "launch" AND role = "dwarf"',
                               'action = "fight"')
        _, stats = eng.query_with_stats(text)
        assert stats.chunks_total == 3
        assert stats.chunks_pruned > 0
        assert stats.chunks_pruned + stats.chunks_scanned \
            == stats.chunks_total
        _, unpruned = eng.query_with_stats(text, prune=False)
        assert unpruned.chunks_pruned == 0
        assert unpruned.chunks_scanned == unpruned.chunks_total

    def test_scheduler_tasks_match_scan_count(self, game_engine):
        plan = game_engine.plan(ALL_AGGS)
        scheduler = ChunkScheduler(game_engine.table(TABLE), plan,
                                   "vectorized")
        stats = ExecStats()
        tasks = scheduler.tasks(stats)
        assert len(tasks) == stats.chunks_scanned
        _, run_stats = scheduler.run()
        assert run_stats.chunks_scanned == stats.chunks_scanned
        assert run_stats.chunks_pruned == stats.chunks_pruned

    @pytest.mark.parametrize("n_runs", [1, 2, 4, 64])
    def test_runs_are_contiguous_slices_of_one_segment(self, n_runs):
        """Runs keep task order, never straddle segments, are at most
        ``ceil(tasks / n_runs)`` long and split each segment evenly."""
        segments = [object(), object(), object()]
        tasks = [ScanTask(chunk=None, index=i, segment=segment)
                 for segment, n in zip(segments, (7, 1, 4))
                 for i in range(n)]
        runs = scan_runs(tasks, n_runs)
        assert [task for run in runs for task in run] == tasks
        assert all(len({id(t.segment) for t in run}) == 1 for run in runs)
        longest = -(-len(tasks) // n_runs)
        for segment in segments:
            lengths = [len(run) for run in runs if run[0].segment is segment]
            assert max(lengths) <= longest
            assert max(lengths) - min(lengths) <= 1


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert (config.backend, config.jobs) == ("serial", 1)

    def test_resolve_picks_threads_for_parallel_jobs(self):
        assert ExecutionConfig.resolve(jobs=4).backend == "threads"
        assert ExecutionConfig.resolve(jobs=1).backend == "serial"
        assert ExecutionConfig.resolve(jobs=4,
                                       backend="serial").backend == "serial"

    def test_rejects_bad_backend_and_jobs(self):
        with pytest.raises(ExecutionError, match="backend"):
            ExecutionConfig(backend="mpi")
        with pytest.raises(ExecutionError, match="jobs"):
            ExecutionConfig(jobs=0)

    def test_unknown_kernel(self):
        with pytest.raises(CatalogError, match="executor"):
            get_kernel("quantum")

    def test_registry_has_both_families(self):
        assert {"vectorized", "iterator"} <= set(KERNELS)

    def test_view_refresh_unit_counts_rows_like_its_partial(self,
                                                            game_engine):
        """shard_value_partial counts into the caller's stats exactly
        the row counters its partial carries."""
        query = game_engine.parse(ALL_AGGS)
        counted = ExecStats()
        partial = shard_value_partial(game_engine.table(TABLE), query,
                                      stats=counted)
        assert counted.rows_scanned == partial.rows_scanned > 0


def _partial(label, age, *states, size=1):
    """A one-bucket partial in the pipeline's columnar format."""
    def column(state):
        if isinstance(state, tuple):
            return tuple(np.array([v]) for v in state)
        return np.array([state])
    return ChunkPartial(labels=[label], sizes=np.array([size]),
                        bucket_label=np.array([0]),
                        bucket_age=np.array([age]),
                        states=[column(s) for s in states])


def _query(*funcs):
    return CohortQuery(
        birth_action="launch", cohort_by=("country",), table="D",
        aggregates=tuple(AggregateSpec(f, None if f in ("COUNT",
                                                        "USERCOUNT")
                                       else "gold", f"m{i}")
                         for i, f in enumerate(funcs)))


class TestMergeProtocol:
    def test_merge_partial_all_functions(self):
        """Two partials of one bucket fold per function."""
        funcs = ("SUM", "COUNT", "USERCOUNT", "AVG", "MIN", "MAX")
        state = MergeState(_query(*funcs))
        state.absorb(_partial(("AU",), 1, 3, 2, 2, (10, 2), 8, 8), None)
        state.absorb(_partial(("AU",), 1, 4, 5, 3, (5, 1), 3, 3), None)
        folded = state.partial()
        assert folded.bucket_age.tolist() == [1]
        sums, counts = folded.states[3]
        assert [s.tolist() for s in folded.states[:3]] == [[7], [7], [5]]
        assert (sums.tolist(), counts.tolist()) == ([15], [3])
        assert [s.tolist() for s in folded.states[4:]] == [[3], [8]]
        assert build_rows(None, state, decoded_labels=True) == [
            ("AU", 2, 1, 7, 7, 5, 5.0, 3, 8)]

    def test_finalize_partial(self):
        assert finalize_partial("AVG", (10, 4)) == 2.5
        assert finalize_partial("AVG", (0, 0)) is None
        assert finalize_partial("SUM", 9) == 9
        assert finalize_partial("SUM", None) is None

    def test_merge_state_is_order_independent(self, game_engine):
        plan = game_engine.plan(ALL_AGGS)
        table = game_engine.table(TABLE)
        kernel = KERNELS["vectorized"]
        partials = [kernel.scan(table, chunk, plan)
                    for chunk in table.chunks]
        forward = MergeState(plan.query)
        backward = MergeState(plan.query)
        for p in partials:
            forward.absorb(p, ExecStats())
        for p in reversed(partials):
            backward.absorb(p, ExecStats())
        rows = build_rows(table, forward, decoded_labels=False)
        assert rows == build_rows(table, backward, decoded_labels=False)
        assert rows == game_engine.query(ALL_AGGS).rows

    def test_chunk_partial_accumulates(self):
        """Absorbing only appends: sizes add up per distinct label, an
        unfolded partial keeps both buckets in arrival order, and the
        fold sums them."""
        state = MergeState(_query("SUM", "AVG"))
        state.absorb(_partial(("AU",), 1, 10, (10, 2), size=2), None)
        state.absorb(_partial(("AU",), 1, 5, (0, 1), size=1), None)
        unfolded = state.partial(fold=False)
        assert unfolded.labels == [("AU",)]
        assert unfolded.sizes.tolist() == [3]
        assert unfolded.states[0].tolist() == [10, 5]
        folded = state.partial()
        assert folded.states[0].tolist() == [15]
        assert [a.tolist() for a in folded.states[1]] == [[10], [3]]
        # The fold ran once: the folded buckets replaced the absorbed.
        assert state.partial(fold=False).states[0].tolist() == [15]
