"""Chunk-pipeline tests: executor parity across kernels and job counts,
pruning accounting, ExecutionConfig resolution, and merge streaming."""

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
    finalize_partial,
    get_kernel,
    merge_partial,
    shard_value_partial,
)
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

    def test_config_conflicts_with_loose_options(self, game_engine):
        with pytest.raises(ExecutionError, match="not both"):
            game_engine.query(ALL_AGGS, jobs=8, config=ExecutionConfig())
        # config alone is fine.
        result = game_engine.query(
            ALL_AGGS, config=ExecutionConfig(backend="threads", jobs=2))
        assert len(result.rows) > 0

    def test_collect_stats_off_keeps_chunk_counters(self, game_engine):
        result, stats = game_engine.query_with_stats(ALL_AGGS, jobs=2,
                                                     collect_stats=False)
        assert len(result.rows) > 0
        assert stats.chunks_scanned > 0
        assert stats.rows_scanned == 0  # detailed counters not gathered

    def test_collect_stats_off_on_the_view_refresh_unit(self,
                                                        game_engine):
        """shard_value_partial is the same driver: chunk counters stay,
        row counters are dropped from the caller's stats (the partial
        itself still carries them)."""
        query = game_engine.parse(ALL_AGGS)
        stats = ExecStats()
        partial = shard_value_partial(
            game_engine.table(TABLE), query,
            config=ExecutionConfig(collect_stats=False), stats=stats)
        assert stats.chunks_scanned == stats.chunks_total > 0
        assert (stats.rows_scanned, stats.users_seen,
                stats.users_qualified, stats.tuples_aggregated) \
            == (0, 0, 0, 0)
        assert partial.rows_scanned > 0
        counted = ExecStats()
        shard_value_partial(game_engine.table(TABLE), query, stats=counted)
        assert counted.rows_scanned == partial.rows_scanned


class TestMergeProtocol:
    def test_merge_partial_all_functions(self):
        assert merge_partial("SUM", 3, 4) == 7
        assert merge_partial("COUNT", None, 5) == 5
        assert merge_partial("USERCOUNT", 2, 3) == 5
        assert merge_partial("AVG", (10, 2), (5, 1)) == (15, 3)
        assert merge_partial("MIN", 8, 3) == 3
        assert merge_partial("MAX", 8, 3) == 8
        with pytest.raises(ExecutionError):
            merge_partial("MEDIAN", 1, 2)

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
        assert forward.cohort_sizes == backward.cohort_sizes
        assert forward.buckets == backward.buckets

    def test_chunk_partial_accumulates(self):
        partial = ChunkPartial(n_aggregates=2)
        partial.add_cohort_size(("AU",), 2)
        partial.add_cohort_size(("AU",), 1)
        assert partial.cohort_sizes == {("AU",): 3}
        partial.add_partial((("AU",), 1), 0, "SUM", 10)
        partial.add_partial((("AU",), 1), 0, "SUM", 5)
        partial.add_partial((("AU",), 1), 1, "AVG", (10, 2))
        assert partial.buckets[(("AU",), 1)] == [15, (10, 2)]
