"""COHANA engine tests: both executors vs the oracle, pruning, planning."""

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datagen import GameConfig, generate
from repro.errors import CatalogError
from repro.cohana import CohanaEngine, extract_time_bounds
from repro.cohana.vectorized import factorize, unique_rows
from repro.cohort import (
    AggregateSpec,
    Between,
    CohortQuery,
    Compare,
    InList,
    Not,
    age_ref,
    attr,
    birth,
    conjoin,
    eq,
    evaluate as oracle_evaluate,
    lit,
)
from repro.service import QueryService
from repro.service.protocol import result_digest
from repro.storage import append_shard, compact, compress, save
from repro.schema import ActivitySchema, LogicalType
from repro.table import ActivityTable

from helpers import fully_pruned_shards, make_game_schema
from test_sessionize import sessionized_schema, with_oracle_column

Q1_TEXT = """
SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent
FROM D
BIRTH FROM action = "launch" AND role = "dwarf"
AGE ACTIVITIES IN action = "shop"
COHORT BY country
"""


@pytest.fixture
def engine(table1):
    eng = CohanaEngine()
    eng.create_table("D", table1, target_chunk_rows=4)
    return eng


class TestEngineBasics:
    def test_q1_text_query(self, engine, table1):
        result = engine.query(Q1_TEXT)
        assert result.rows == [
            ("Australia", 1, 1, 50),
            ("Australia", 1, 2, 100),
            ("Australia", 1, 3, 50),
        ]

    def test_iterator_executor_matches(self, engine):
        vec = engine.query(Q1_TEXT, executor="vectorized")
        it = engine.query(Q1_TEXT, executor="iterator")
        assert vec.rows == it.rows
        assert vec.columns == it.columns

    def test_kernels_sum_a_timestamp_measure_exactly(self):
        """A measure's sum folds by its values' dtype, as partials
        merge: a TIMESTAMP measure sums to an exact int in both kernels,
        as in the oracle."""
        schema = ActivitySchema.build(
            user="player", time="time", action="action",
            dimensions={"country": LogicalType.STRING},
            measures={"at": LogicalType.TIMESTAMP})
        table = ActivityTable.from_rows(schema, [
            ("a", "2013-05-19", "launch", "AU", "2013-05-19"),
            ("a", "2013-05-20", "shop", "AU", "2013-05-20"),
            ("a", "2013-05-20 10:00", "shop", "AU", "2013-05-21")])
        eng = CohanaEngine()
        eng.create_table("D", table)
        text = ('SELECT country, COHORTSIZE, AGE, Sum(at), Avg(at), '
                'Min(at) FROM D BIRTH FROM action = "launch" '
                'COHORT BY country')
        want = oracle_evaluate(eng.parse(text), table).rows
        for executor in ("vectorized", "iterator"):
            got = eng.query(text, executor=executor).rows
            assert got == want
            assert [type(v) for v in got[0]] == [type(v) for v in want[0]]

    def test_unknown_executor(self, engine):
        with pytest.raises(CatalogError, match="executor"):
            engine.query(Q1_TEXT, executor="quantum")

    def test_catalog(self, engine, table1):
        assert engine.tables() == ["D"]
        with pytest.raises(CatalogError):
            engine.create_table("D", table1)
        with pytest.raises(CatalogError):
            engine.table("missing")
        engine.drop_table("D")
        assert engine.tables() == []

    def test_create_table_replace(self, engine, table1):
        # Without replace, re-registering stays an error (test above);
        # with replace=True the registration is overwritten in place.
        first = engine.table("D")
        replaced = engine.create_table("D", table1, target_chunk_rows=2,
                                       replace=True)
        assert engine.table("D") is replaced
        assert replaced is not first
        assert replaced.n_chunks > first.n_chunks

    def test_register_replace(self, engine, table1):
        compressed = engine.table("D")
        with pytest.raises(CatalogError):
            engine.register("D", compressed)
        engine.register("D", compressed, replace=True)
        assert engine.table("D") is compressed

    def test_save_load_roundtrip(self, engine, tmp_path):
        path = tmp_path / "d.cohana"
        engine.save_table("D", path)
        engine2 = CohanaEngine()
        engine2.load_table("D", path)
        assert engine2.query(Q1_TEXT).rows == engine.query(Q1_TEXT).rows

    def test_explain_mentions_plan_pieces(self, engine):
        text = engine.explain(Q1_TEXT)
        assert "CohortAggregate" in text
        assert "TableScan" in text
        assert "pushed below age selection" in text

    def test_unknown_birth_action_returns_empty(self, engine):
        result = engine.query(
            'SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
            'BIRTH FROM action = "no_such" COHORT BY country')
        assert result.rows == []

    @pytest.mark.parametrize("big", [2 ** 53 + 1, 2 ** 62])
    def test_int_sum_is_exact(self, game_schema, big):
        # float64 accumulation rounds 2**53 + 1 down by one; an int64
        # accumulator would wrap on 2 * 2**62.
        rows = [(user, "2013-05-19", "launch", "dwarf", "AU", 0)
                for user in ("a", "b")]
        rows += [(user, "2013-05-20", "shop", "dwarf", "AU", big)
                 for user in ("a", "b")]
        table = ActivityTable.from_rows(game_schema, rows)
        eng = CohanaEngine()
        eng.create_table("D", table)
        text = ('SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
                'BIRTH FROM action = "launch" COHORT BY country')
        expected = oracle_evaluate(eng.parse(text), table).rows
        assert expected == [("AU", 2, 1, 2 * big)]
        for executor in ("vectorized", "iterator"):
            assert eng.query(text, executor=executor).rows == expected

    def test_query_object_api(self, engine, table1):
        query = CohortQuery(
            birth_action="launch",
            cohort_by=("country",),
            aggregates=(AggregateSpec("USERCOUNT", None, "retained"),),
            table="D",
        )
        result = engine.query(query)
        assert result.rows == oracle_evaluate(query, table1).rows


SESSION_TEXT = ('SELECT country, COHORTSIZE, AGE, Max(s) FROM D '
                'BIRTH FROM action = "launch" AGE ACTIVITIES IN s > 1 '
                'SESSIONIZE (GAP = 600 seconds) AS s COHORT BY country')

#: EXPLAIN (False) and EXPLAIN ANALYZE (True) of Q1 and of a SESSIONIZE
#: query, over one file and over three user-disjoint shards, as the
#: vectorized kernel renders them; the iterator kernel differs only in
#: the ``[kernel=...]`` tag.
GOLDEN_EXPLAIN = {
    ('plain', 'file', False): (
        "CohortAggregate(L=['country'], e='launch', "
        "f=['Sum(gold)']) [kernel=vectorized]\n"
        "  CohortProject(L=['country'], time_bin=week)\n"
        "  AgeSelect(action = 'shop')\n"
        "  BirthSelect(role = 'dwarf') [pushed below age "
        'selection]\n'
        "  TableScan(columns=['time', 'action', 'country', "
        "'role', 'gold'], prune=on, scan_mode=compressed, "
        'birth_gid=8, time_range=[None, None], bounds=[role IN '
        'ids[2]])\n'
        'Execution(backend=serial, jobs=1)'
    ),
    ('plain', 'file', True): (
        "CohortAggregate(L=['country'], e='launch', "
        "f=['Sum(gold)']) [kernel=vectorized] rows_out=32\n"
        "  CohortProject(L=['country'], time_bin=week) "
        'rows_in=60 cohorts=7\n'
        "  AgeSelect(action = 'shop') rows_in=877 rows_out=60\n"
        "  BirthSelect(role = 'dwarf') [pushed below age "
        'selection] users_in=26 users_out=13\n'
        "  TableScan(columns=['time', 'action', 'country', "
        "'role', 'gold'], prune=on, scan_mode=compressed, "
        'birth_gid=8, time_range=[None, None], bounds=[role IN '
        'ids[2]]) chunks=11/13 pruned=2 (zone=2) rows_out=877\n'
        'Execution(backend=serial, jobs=1)'
    ),
    ('sessionize', 'file', False): (
        "CohortAggregate(L=['country'], e='launch', "
        "f=['Max(s)']) [kernel=vectorized]\n"
        "  CohortProject(L=['country'], time_bin=week)\n"
        '  AgeSelect(s > 1)\n'
        '  BirthSelect(TRUE) [pushed below age selection]\n'
        "  Sessionize(gap=600s, column='s')\n"
        "  TableScan(columns=['time', 'action', 'country', 's'], "
        'prune=on, scan_mode=compressed, birth_gid=8, '
        'time_range=[None, None], bounds=[])\n'
        'Execution(backend=serial, jobs=1)'
    ),
    ('sessionize', 'file', True): (
        "CohortAggregate(L=['country'], e='launch', "
        "f=['Max(s)']) [kernel=vectorized] rows_out=160\n"
        "  CohortProject(L=['country'], time_bin=week) "
        'rows_in=972 cohorts=13\n'
        '  AgeSelect(s > 1) rows_in=1034 rows_out=972\n'
        '  BirthSelect(TRUE) [pushed below age selection] '
        'users_in=30 users_out=30\n'
        "  Sessionize(gap=600s, column='s') rows_in=1034 "
        'rows_out=1034\n'
        "  TableScan(columns=['time', 'action', 'country', 's'], "
        'prune=on, scan_mode=compressed, birth_gid=8, '
        'time_range=[None, None], bounds=[]) chunks=13/13 '
        'pruned=0 (zone=0) rows_out=1034\n'
        'Execution(backend=serial, jobs=1)'
    ),
    ('plain', 'shards', False): (
        "CohortAggregate(L=['country'], e='launch', "
        "f=['Sum(gold)']) [kernel=vectorized]\n"
        "  CohortProject(L=['country'], time_bin=week)\n"
        "  AgeSelect(action = 'shop')\n"
        "  BirthSelect(role = 'dwarf') [pushed below age "
        'selection]\n'
        "  TableScan(columns=['time', 'action', 'country', "
        "'role', 'gold'], prune=on, scan_mode=compressed, "
        'birth_gid=8, time_range=[None, None], bounds=[role IN '
        'ids[2]])\n'
        "Segments(count=3) [ids shown are segment 1's]\n"
        'Execution(backend=serial, jobs=1)'
    ),
    ('plain', 'shards', True): (
        "CohortAggregate(L=['country'], e='launch', "
        "f=['Sum(gold)']) [kernel=vectorized] rows_out=32\n"
        "  CohortProject(L=['country'], time_bin=week) "
        'rows_in=60 cohorts=7\n'
        "  AgeSelect(action = 'shop') rows_in=837 rows_out=60\n"
        "  BirthSelect(role = 'dwarf') [pushed below age "
        'selection] users_in=24 users_out=13\n'
        "  TableScan(columns=['time', 'action', 'country', "
        "'role', 'gold'], prune=on, scan_mode=compressed, "
        'birth_gid=8, time_range=[None, None], bounds=[role IN '
        'ids[2]]) chunks=10/14 pruned=4 (zone=4) rows_out=837\n'
        "Segments(count=3) [ids shown are segment 1's]\n"
        'Execution(backend=serial, jobs=1)'
    ),
    ('sessionize', 'shards', False): (
        "CohortAggregate(L=['country'], e='launch', "
        "f=['Max(s)']) [kernel=vectorized]\n"
        "  CohortProject(L=['country'], time_bin=week)\n"
        '  AgeSelect(s > 1)\n'
        '  BirthSelect(TRUE) [pushed below age selection]\n'
        "  Sessionize(gap=600s, column='s')\n"
        "  TableScan(columns=['time', 'action', 'country', 's'], "
        'prune=on, scan_mode=compressed, birth_gid=8, '
        'time_range=[None, None], bounds=[])\n'
        "Segments(count=3) [ids shown are segment 1's]\n"
        'Execution(backend=serial, jobs=1)'
    ),
    ('sessionize', 'shards', True): (
        "CohortAggregate(L=['country'], e='launch', "
        "f=['Max(s)']) [kernel=vectorized] rows_out=160\n"
        "  CohortProject(L=['country'], time_bin=week) "
        'rows_in=972 cohorts=13\n'
        '  AgeSelect(s > 1) rows_in=1034 rows_out=972\n'
        '  BirthSelect(TRUE) [pushed below age selection] '
        'users_in=30 users_out=30\n'
        "  Sessionize(gap=600s, column='s') rows_in=1034 "
        'rows_out=1034\n'
        "  TableScan(columns=['time', 'action', 'country', 's'], "
        'prune=on, scan_mode=compressed, birth_gid=8, '
        'time_range=[None, None], bounds=[]) chunks=14/14 '
        'pruned=0 (zone=0) rows_out=1034\n'
        "Segments(count=3) [ids shown are segment 1's]\n"
        'Execution(backend=serial, jobs=1)'
    ),
}


@pytest.fixture(scope="module")
def explain_layouts(tmp_path_factory):
    """``{'file': path, 'shards': directory}`` holding the same 30
    users, in 64-row chunks."""
    table = generate(GameConfig(n_users=30, seed=3))
    tmp = tmp_path_factory.mktemp("explain")
    path = tmp / "d.cohana"
    save(compress(table, target_chunk_rows=64), path)
    ordered = table.sorted_by_primary_key()
    blocks = list(ordered.user_blocks())
    third = len(blocks) // 3
    for part in (blocks[:third], blocks[third:2 * third],
                 blocks[2 * third:]):
        append_shard(tmp / "shards",
                     ordered.slice(part[0][1], part[-1][2]),
                     target_chunk_rows=64)
    return {"file": path, "shards": tmp / "shards"}


@pytest.mark.parametrize("key", sorted(GOLDEN_EXPLAIN))
def test_explain_text_is_pinned(explain_layouts, key):
    """The full EXPLAIN / EXPLAIN ANALYZE text, not just its pieces."""
    name, layout, analyze = key
    eng = CohanaEngine()
    eng.load_table("D", explain_layouts[layout])
    text = {"plain": Q1_TEXT, "sessionize": SESSION_TEXT}[name]
    want = GOLDEN_EXPLAIN[key]
    for kernel in ("vectorized", "iterator"):
        # ANALYZE runs the read it explains: clear the partials it filed,
        # so each kernel's is cold.
        eng.partials.clear()
        assert eng.explain(text, executor=kernel, analyze=analyze) == \
            want.replace("[kernel=vectorized]", f"[kernel={kernel}]")


#: EXPLAIN ANALYZE of a warm read of the three shards: every segment is
#: served from the partial store, and the scan counters say so.
GOLDEN_WARM_ANALYZE = {
    'plain': (
        "CohortAggregate(L=['country'], e='launch', "
        "f=['Sum(gold)']) [kernel=vectorized] rows_out=32\n"
        "  CohortProject(L=['country'], time_bin=week) "
        'rows_in=0 cohorts=7\n'
        "  AgeSelect(action = 'shop') rows_in=0 rows_out=0\n"
        "  BirthSelect(role = 'dwarf') [pushed below age "
        'selection] users_in=0 users_out=0\n'
        "  TableScan(columns=['time', 'action', 'country', "
        "'role', 'gold'], prune=on, scan_mode=compressed, "
        'birth_gid=8, time_range=[None, None], bounds=[role IN '
        'ids[2]]) chunks=0/0 pruned=0 (zone=0) rows_out=0 '
        'shards_reused=3\n'
        "Segments(count=3) [ids shown are segment 1's]\n"
        'Execution(backend=serial, jobs=1)'
    ),
    'sessionize': (
        "CohortAggregate(L=['country'], e='launch', "
        "f=['Max(s)']) [kernel=vectorized] rows_out=160\n"
        "  CohortProject(L=['country'], time_bin=week) "
        'rows_in=0 cohorts=13\n'
        '  AgeSelect(s > 1) rows_in=0 rows_out=0\n'
        '  BirthSelect(TRUE) [pushed below age selection] '
        'users_in=0 users_out=0\n'
        "  Sessionize(gap=600s, column='s') rows_in=0 rows_out=0\n"
        "  TableScan(columns=['time', 'action', 'country', 's'], "
        'prune=on, scan_mode=compressed, birth_gid=8, '
        'time_range=[None, None], bounds=[]) chunks=0/0 '
        'pruned=0 (zone=0) rows_out=0 shards_reused=3\n'
        "Segments(count=3) [ids shown are segment 1's]\n"
        'Execution(backend=serial, jobs=1)'
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WARM_ANALYZE))
def test_explain_analyze_is_the_read_it_explains(explain_layouts, name):
    """ANALYZE runs the read itself, partial store included: after a
    read it reports every shard reused, and after an append exactly the
    new shard scanned, with the counters of the read it ran."""
    eng = CohanaEngine()
    eng.load_table("D", explain_layouts["shards"])
    text = {"plain": Q1_TEXT, "sessionize": SESSION_TEXT}[name]
    assert eng.explain(text, analyze=True) == \
        GOLDEN_EXPLAIN[(name, "shards", True)]
    for kernel in ("vectorized", "iterator"):
        assert eng.explain(text, executor=kernel, analyze=True) == \
            GOLDEN_WARM_ANALYZE[name].replace("[kernel=vectorized]",
                                              f"[kernel={kernel}]")
    _, warm = eng.query_with_stats(text)
    assert (warm.shards_total, warm.shards_reused, warm.chunks_total) \
        == (3, 3, 0)


def test_explain_analyze_after_an_append_scans_the_new_shard(
        explain_layouts, tmp_path):
    """Two engines take the same steps over a copy of the shards; one
    reads after an append, the other explains that read: ANALYZE shows
    the read's counters — the new shard scanned, the others reused."""
    d = tmp_path / "shards"
    shutil.copytree(explain_layouts["shards"], d)
    engines = [CohanaEngine(), CohanaEngine()]
    for eng in engines:
        eng.load_table("D", d)
        eng.query(Q1_TEXT)
    extra = generate(GameConfig(n_users=12, seed=9))
    entry = append_shard(d, ActivityTable.from_rows(extra.schema, [
        ("z" + row[0], *row[1:]) for row in extra.to_rows()]),
        target_chunk_rows=64)
    for eng in engines:
        eng.refresh_table("D")
    _, stats = engines[0].query_with_stats(Q1_TEXT)
    assert (stats.shards_total, stats.shards_scanned,
            stats.shards_reused, stats.chunks_total) == (
        4, 1, 3, entry["n_chunks"])
    scan = engines[1].explain(Q1_TEXT, analyze=True).splitlines()[-3]
    assert scan.endswith(
        f" chunks={stats.chunks_scanned}/{stats.chunks_total} "
        f"pruned={stats.chunks_pruned} (zone={stats.chunks_pruned_zone})"
        f" rows_out={stats.rows_scanned} shards_reused=3")


def test_explain_of_shards_says_its_ids_are_segment_ones(tmp_path,
                                                         game_schema):
    """Only the second shard holds the birth action, so the first
    shard's plan (the one rendered) has no birth id although the query
    returns rows: the segment line says whose ids they are."""
    for rows in ([("a", "2013-05-19", "fight", "d", "AU", 0)],
                 [("b", "2013-05-19", "launch", "d", "AU", 0),
                  ("b", "2013-05-21", "shop", "d", "AU", 5)]):
        append_shard(tmp_path / "s",
                     ActivityTable.from_rows(game_schema, rows))
    eng = CohanaEngine()
    eng.load_table("D", tmp_path / "s")
    text = ('SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
            'BIRTH FROM action = "launch" COHORT BY country')
    assert eng.query(text).rows == [("AU", 1, 2, 5)]
    for analyze in (False, True):
        lines = eng.explain(text, analyze=analyze).splitlines()
        assert "birth_gid=None" in lines[-3]
        assert lines[-2] == "Segments(count=2) [ids shown are segment 1's]"
        assert lines[-1].startswith("Execution(")


class TestStatsAndPruning:
    def test_chunk_pruning_by_action(self, game_schema):
        # Two chunks; only one contains the birth action.
        rows = [("a", "2013-05-19", "launch", "d", "AU", 0),
                ("a", "2013-05-20", "shop", "d", "AU", 5),
                ("b", "2013-05-19", "fight", "d", "CN", 0),
                ("b", "2013-05-20", "fight", "d", "CN", 0)]
        table = ActivityTable.from_rows(game_schema, rows)
        eng = CohanaEngine()
        eng.create_table("D", table, target_chunk_rows=2)
        assert eng.table("D").n_chunks == 2
        _, stats = eng.query_with_stats(
            'SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
            'BIRTH FROM action = "launch" COHORT BY country')
        assert stats.chunks_pruned == 1
        assert stats.chunks_scanned == 1

    def test_pruning_disabled_scans_everything(self, game_schema):
        rows = [("a", "2013-05-19", "launch", "d", "AU", 0),
                ("b", "2013-05-19", "fight", "d", "CN", 0)]
        table = ActivityTable.from_rows(game_schema, rows)
        eng = CohanaEngine()
        eng.create_table("D", table, target_chunk_rows=1)
        _, stats = eng.query_with_stats(
            'SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
            'BIRTH FROM action = "launch" COHORT BY country', prune=False)
        assert stats.chunks_pruned == 0
        assert stats.chunks_scanned == 2

    def test_time_range_pruning(self, game_schema):
        rows = [("a", "2013-05-19", "launch", "d", "AU", 0),
                ("b", "2013-06-19", "launch", "d", "CN", 0),
                ("b", "2013-06-20", "shop", "d", "CN", 9)]
        table = ActivityTable.from_rows(game_schema, rows)
        eng = CohanaEngine()
        eng.create_table("D", table, target_chunk_rows=1)
        _, stats = eng.query_with_stats(
            'SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
            'BIRTH FROM action = "launch" AND '
            'time BETWEEN "2013-06-01" AND "2013-06-30" '
            'COHORT BY country')
        assert stats.chunks_pruned >= 1

    def test_skipping_unqualified_users(self, engine):
        # scan_mode="decoded" disables the coded-domain chunk pruning so
        # every user is actually visited (and then skipped per user);
        # see test_zone_pruning_hides_unqualified_users for the default.
        _, stats = engine.query_with_stats(Q1_TEXT, scan_mode="decoded")
        assert stats.users_seen == 3
        assert stats.users_qualified == 1

    def test_zone_pruning_hides_unqualified_users(self, engine):
        # Default (compressed) mode: role = "dwarf" prunes the chunk whose
        # role dictionary lacks "dwarf", so its users are never seen —
        # with identical results.
        decoded, dstats = engine.query_with_stats(Q1_TEXT,
                                                  scan_mode="decoded")
        default, stats = engine.query_with_stats(Q1_TEXT)
        assert default.rows == decoded.rows
        assert stats.chunks_pruned_zone > 0
        assert stats.users_seen < dstats.users_seen
        assert stats.users_qualified == dstats.users_qualified

    def test_pushdown_flag_same_result(self, engine):
        for executor in ("vectorized", "iterator"):
            with_pd = engine.query(Q1_TEXT, executor=executor,
                                   pushdown=True)
            without_pd = engine.query(Q1_TEXT, executor=executor,
                                      pushdown=False)
            assert with_pd.rows == without_pd.rows


class TestPlanner:
    def test_time_bounds_between(self):
        cond = Between(attr("time"), lit(10), lit(20))
        assert extract_time_bounds(cond, "time") == (10, 20)

    def test_time_bounds_comparisons(self):
        cond = conjoin(Compare(attr("time"), ">=", lit(5)),
                       Compare(attr("time"), "<", lit(9)))
        assert extract_time_bounds(cond, "time") == (5, 9)

    def test_time_bounds_flipped_literal(self):
        cond = Compare(lit(5), "<=", attr("time"))
        assert extract_time_bounds(cond, "time") == (5, None)

    def test_time_bounds_equality(self):
        assert extract_time_bounds(eq("time", 7), "time") == (7, 7)

    def test_time_bounds_other_column_ignored(self):
        assert extract_time_bounds(eq("gold", 7), "time") == (None, None)

    def test_time_bounds_disjunction_ignored(self):
        from repro.cohort import Or
        cond = Or((eq("time", 5), eq("time", 9)))
        assert extract_time_bounds(cond, "time") == (None, None)

    def test_required_columns(self, engine):
        plan = engine.plan(Q1_TEXT)
        assert set(plan.columns) == {"time", "action", "role", "country",
                                     "gold"}

    def test_required_columns_minimal(self, engine):
        plan = engine.plan(
            'SELECT country, COHORTSIZE, AGE, UserCount() FROM D '
            'BIRTH FROM action = "launch" COHORT BY country')
        assert set(plan.columns) == {"time", "action", "country"}


# -- differential property test: engines vs oracle ------------------------------

_users = st.integers(min_value=0, max_value=29).map(lambda i: f"u{i:02d}")
_actions = st.sampled_from(["launch", "shop", "fight"])
_countries = st.sampled_from(["AU", "CN", "US"])
_roles = st.sampled_from(["dwarf", "wizard"])
_times = st.integers(min_value=0, max_value=40 * 86400)
_units = st.sampled_from(["hour", "day", "week"])


@st.composite
def random_table(draw):
    keys = set()
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        # A burst of one user's rows within an hour: they share an age
        # in every unit, so buckets repeat inside a user run.
        user, start = draw(_users), draw(_times)
        for offset in draw(st.lists(st.integers(0, 3599), min_size=1,
                                    max_size=4)):
            keys.add((user, start + offset, draw(_actions)))
    rows = [(u, t, a, draw(_roles), draw(_countries),
             draw(st.integers(0, 100))) for (u, t, a) in sorted(keys)]
    return ActivityTable.from_rows(make_game_schema(), rows)


@st.composite
def random_query(draw):
    """A cohort query over ``random_table``'s schema. Some literals are
    in no table ("quit", "elf", "ZZ", "YY") and "CN" may be in only some
    shards: each segment resolves them against its own dictionaries."""
    birth_action = draw(st.sampled_from(["launch", "shop", "fight",
                                         "quit"]))
    birth_cond = draw(st.sampled_from([
        None,
        eq("role", "dwarf"),
        Between(attr("time"), lit(0), lit(20 * 86400)),
        conjoin(eq("role", "wizard"), eq("country", "CN")),
        eq("role", "elf"),
        InList(attr("country"), ("ZZ", "YY")),
        InList(attr("country"), ("ZZ", "CN")),
        Compare(attr("country"), "<", lit("BB")),
    ]))
    age_cond = draw(st.sampled_from([
        None,
        eq("action", "shop"),
        eq("action", "quit"),
        Compare(age_ref(), "<", lit(5)),
        # Non-positive ages satisfy these: only the after-birth filter
        # keeps the birth tuple and earlier rows out of the buckets.
        Compare(age_ref(), ">=", lit(0)),
        Not(Compare(age_ref(), "<", lit(3))),
        Compare(age_ref(), "!=", lit(1)),
        Compare(attr("country"), "=", birth("country")),
        conjoin(eq("action", "shop"),
                Compare(attr("role"), "=", birth("role"))),
    ]))
    funcs = draw(st.lists(st.sampled_from(
        ["SUM", "AVG", "COUNT", "MIN", "MAX", "USERCOUNT"]),
        min_size=1, max_size=3))
    aggs = tuple(
        AggregateSpec(func, None if func in ("COUNT", "USERCOUNT")
                      else "gold", f"m{i}")
        for i, func in enumerate(funcs))
    cohort_by = draw(st.sampled_from([("country",), ("role",),
                                      ("country", "role"), ("time",),
                                      ("time", "country"), ("gold",)]))
    kwargs = dict(birth_action=birth_action, cohort_by=cohort_by,
                  aggregates=aggs, age_unit=draw(_units),
                  cohort_time_bin=draw(_units), table="D")
    if birth_cond is not None:
        kwargs["birth_condition"] = birth_cond
    if age_cond is not None:
        kwargs["age_condition"] = age_cond
    return CohortQuery(**kwargs)


@given(table=random_table(), query=random_query(),
       chunk_rows=st.sampled_from([1, 3, 7, 1000]))
@settings(max_examples=120, deadline=None)
def test_property_engines_match_oracle(table, query, chunk_rows):
    expected = oracle_evaluate(query, table)
    eng = CohanaEngine()
    eng.create_table("D", table, target_chunk_rows=chunk_rows)
    for executor in ("vectorized", "iterator"):
        for scan_mode in ("compressed", "decoded"):
            got = eng.query(query, executor=executor, scan_mode=scan_mode)
            assert got.columns == expected.columns
            assert _approx(got.rows) == _approx(expected.rows), (
                f"{executor}/{scan_mode} mismatch for {query}")


@given(table=random_table(), query=random_query())
@settings(max_examples=40, deadline=None)
def test_property_pruning_and_pushdown_never_change_results(table, query):
    eng = CohanaEngine()
    eng.create_table("D", table, target_chunk_rows=5)
    baseline = eng.query(query, prune=False, pushdown=False)
    for prune in (False, True):
        for pushdown in (False, True):
            got = eng.query(query, prune=prune, pushdown=pushdown)
            assert _approx(got.rows) == _approx(baseline.rows)


#: Every backend the scheduler has; ``processes`` runs on the shared
#: worker pool, warm after the first example.
_BACKENDS = ({}, {"jobs": 2, "backend": "threads"},
             {"jobs": 2, "backend": "processes"})


@given(table=random_table(), query=random_query(),
       chunk_rows=st.sampled_from([2, 5, 1000]))
@settings(max_examples=50, deadline=None)
def test_property_backends_and_layouts_match_oracle(table, query,
                                                    chunk_rows):
    """Every backend over a single file, over >= 3 shards and over one
    shard gives the oracle's rows, and all of them the same digest
    (FLOAT-free here, but the fold order is what makes that hold in
    general). Every read bypasses the engine's partial cache and covers
    every chunk, so each backend scans the shards itself."""
    assume(len(table.distinct_users()) >= 3)
    expected = oracle_evaluate(query, table)
    digests = set()
    with tempfile.TemporaryDirectory() as tmp:
        for layout in _file_and_shards(table, chunk_rows, tmp):
            eng = CohanaEngine()
            eng.load_table("D", layout)
            for options in _BACKENDS:
                # An empty partial cache: every backend scans.
                eng.partials.clear()
                got, stats = eng.query_with_stats(query, **options)
                assert _approx(got.rows) == _approx(expected.rows), (
                    layout, options)
                assert stats.chunks_total == eng.table("D").n_chunks
                assert (stats.chunks_pruned + stats.chunks_scanned
                        == stats.chunks_total)
                assert stats.shards_total == (stats.shards_scanned
                                              + stats.shards_reused
                                              + fully_pruned_shards(
                                                  _shards(eng), query))
                digests.add(result_digest(got))
    assert len(digests) == 1


@given(table=random_table(), query=random_query(),
       chunk_rows=st.sampled_from([2, 5, 1000]))
@settings(max_examples=30, deadline=None)
def test_property_views_match_oracle_on_every_layout(table, query,
                                                     chunk_rows):
    """Each generated query, as a view over a single file, over three
    shards and over one shard, is served cold (after
    ``partials.clear()``), warm, through ``QueryService(jobs=2)`` and,
    on the two shard layouts, after one append: every serve gives the
    oracle's rows and the direct read's digest."""
    assume(len(table.distinct_users()) >= 3)
    expected = oracle_evaluate(query, table)
    extra = ActivityTable.from_rows(table.schema, [
        ("n" + row[0], *row[1:]) for row in table.to_rows()])
    grown = oracle_evaluate(query, ActivityTable.from_rows(
        table.schema, table.to_rows() + extra.to_rows()))
    with tempfile.TemporaryDirectory() as tmp:
        for layout in _file_and_shards(table, chunk_rows, tmp):
            eng = CohanaEngine()
            eng.load_table("D", layout)
            eng.create_view("v", query)
            direct = result_digest(eng.query(query))
            eng.partials.clear()
            cold, _ = eng.serve_view("v")
            warm, _ = eng.serve_view("v")
            eng.partials.clear()
            served, _ = QueryService(eng, jobs=2).serve_view("v")
            for got in (cold, warm, served):
                assert _approx(got.rows) == _approx(expected.rows), layout
                assert result_digest(got) == direct, layout
            if not os.path.isdir(layout):
                continue
            append_shard(layout, extra, target_chunk_rows=chunk_rows)
            eng.refresh_table("D", refresh_views=False)
            got, stats = eng.serve_view("v")
            assert stats.shards_reused == stats.shards_total - 1
            assert _approx(got.rows) == _approx(grown.rows), layout
            assert result_digest(got) == result_digest(eng.query(query))


def _shards(eng):
    """Table ``D``'s shards; none for a single file."""
    return getattr(eng.table("D"), "shards", ())


def _file_and_shards(table, chunk_rows, tmp):
    """``table`` saved under ``tmp`` as one file, as three user-disjoint
    shards and as a directory of one shard (a sharded table with one
    segment, planned on its shard); returns the three paths."""
    path = os.path.join(tmp, "d.cohana")
    save(compress(table, target_chunk_rows=chunk_rows), path)
    shards = os.path.join(tmp, "shards")
    ordered = table.sorted_by_primary_key()
    blocks = list(ordered.user_blocks())
    for part in (blocks[:1], blocks[1:2], blocks[2:]):
        append_shard(shards, ordered.slice(part[0][1], part[-1][2]),
                     target_chunk_rows=chunk_rows)
    one = os.path.join(tmp, "one-shard")
    append_shard(one, table, target_chunk_rows=chunk_rows)
    return path, shards, one


#: A SESSIONIZE query whose session column feeds the age predicate and
#: the aggregates; without the clause it reads a stored column ``s``.
_SESSION_SHAPE = ('SELECT country, COHORTSIZE, AGE, Max(s), Sum(s), '
                  'Count(*) FROM D BIRTH FROM action = "{action}" '
                  'AGE ACTIVITIES IN s > 1 {sessionize}COHORT BY country')


@given(table=random_table(), action=_actions,
       chunk_rows=st.sampled_from([2, 5, 1000]))
@settings(max_examples=30, deadline=None)
def test_property_sessionize_matches_stored_column(table, action,
                                                   chunk_rows):
    """A SESSIONIZE query over a file, over three shards and over one
    shard, on every backend, answers exactly like the same query over a
    stored column holding the oracle's session ordinals, with one
    digest. Every read bypasses the engine's partial cache and covers
    every chunk."""
    assume(len(table.distinct_users()) >= 3)
    twin = CohanaEngine()
    twin.create_table("D", ActivityTable.from_rows(
        sessionized_schema(), with_oracle_column(table.to_rows())))
    expected = twin.query(_SESSION_SHAPE.format(action=action,
                                                sessionize=""))
    text = _SESSION_SHAPE.format(
        action=action, sessionize="SESSIONIZE (GAP = 600 seconds) AS s ")
    digests = set()
    with tempfile.TemporaryDirectory() as tmp:
        for layout in _file_and_shards(table, chunk_rows, tmp):
            eng = CohanaEngine()
            eng.load_table("D", layout)
            for options in _BACKENDS:
                eng.partials.clear()
                got, stats = eng.query_with_stats(text, **options)
                assert got.rows == expected.rows, (layout, options)
                assert stats.chunks_total == eng.table("D").n_chunks
                assert (stats.chunks_pruned + stats.chunks_scanned
                        == stats.chunks_total)
                assert stats.shards_total == (stats.shards_scanned
                                              + stats.shards_reused
                                              + fully_pruned_shards(
                                                  _shards(eng),
                                                  eng.parse(text)))
                digests.add(result_digest(got))
    assert len(digests) == 1


@given(table=random_table(), query=random_query(),
       chunk_rows=st.sampled_from([2, 5, 1000]))
@settings(max_examples=40, deadline=None)
def test_property_append_rescans_only_the_new_shard(table, query,
                                                     chunk_rows):
    """A query served through ``QueryService`` over user-disjoint
    shards, then again after one more shard is appended: the second
    answer is ``invalidated``, scans at most the new shard, reuses every
    older shard's partial, and is the oracle's and a fresh engine's."""
    assume(len(table.distinct_users()) >= 4)
    ordered = table.sorted_by_primary_key()
    blocks = list(ordered.user_blocks())
    parts = (blocks[:1], blocks[1:2], blocks[2:-1], blocks[-1:])
    expected = oracle_evaluate(query, table)
    with tempfile.TemporaryDirectory() as shards:
        for part in parts[:-1]:
            append_shard(shards, ordered.slice(part[0][1], part[-1][2]),
                         target_chunk_rows=chunk_rows)
        eng = CohanaEngine()
        eng.load_table("D", shards)
        service = QueryService(eng)
        service.query(query)
        hits = service.stats_snapshot()["partials"]["hits"]
        last = parts[-1]
        append_shard(shards, ordered.slice(last[0][1], last[-1][2]),
                     target_chunk_rows=chunk_rows)
        eng.refresh_table("D")
        got, stats = service.query_with_stats(query)
        assert stats.cache_disposition == "invalidated"
        assert stats.shards_total == 4
        assert stats.shards_scanned <= 1
        assert stats.shards_reused == 3
        assert stats.shards_scanned + fully_pruned_shards(
            eng.table("D").shards[3:], query) == 1
        assert (stats.chunks_pruned + stats.chunks_scanned
                == stats.chunks_total)
        assert service.stats_snapshot()["partials"]["hits"] == hits + 3
        assert _approx(got.rows) == _approx(expected.rows)
        fresh = CohanaEngine()
        fresh.load_table("D", shards)
        assert result_digest(got) == result_digest(fresh.query(query))


@given(table=random_table(), query=random_query(),
       chunk_rows=st.sampled_from([2, 5, 1000]))
@settings(max_examples=30, deadline=None)
def test_property_direct_reads_reuse_partials_across_append_and_compact(
        table, query, chunk_rows):
    """Through ``CohanaEngine`` alone, over user-disjoint shards: a read
    after an append scans at most the new shard, a read after a
    compaction at most the merged one, and a repeated read nothing.
    Every answer is the oracle's and a fresh engine's."""
    assume(len(table.distinct_users()) >= 4)
    ordered = table.sorted_by_primary_key()
    blocks = list(ordered.user_blocks())
    parts = (blocks[:1], blocks[1:2], blocks[2:-1], blocks[-1:])
    expected = oracle_evaluate(query, table)
    with tempfile.TemporaryDirectory() as shards:
        for part in parts[:-1]:
            append_shard(shards, ordered.slice(part[0][1], part[-1][2]),
                         target_chunk_rows=chunk_rows)
        eng = CohanaEngine()
        eng.load_table("D", shards)
        eng.query(query)
        last = parts[-1]
        append_shard(shards, ordered.slice(last[0][1], last[-1][2]),
                     target_chunk_rows=chunk_rows)
        eng.refresh_table("D")
        reads = [eng.query_with_stats(query)]
        assert reads[-1][1].shards_scanned <= 1
        # Merge all but the largest shard: a one-segment table gets no
        # partial store, so keep two segments.
        *small, largest = sorted(s.n_rows for s in eng.table("D").shards)
        assume(largest > small[-1])
        assert compact(shards, small_rows=small[-1]).compacted
        eng.refresh_table("D")
        assert len(eng.table("D").shards) == 2
        reads.append(eng.query_with_stats(query))
        assert reads[-1][1].shards_scanned <= 1
        reads.append(eng.query_with_stats(query))
        assert reads[-1][1].shards_scanned == 0
        fresh = CohanaEngine()
        fresh.load_table("D", shards)
        want = result_digest(fresh.query(query))
        for got, _stats in reads:
            assert _approx(got.rows) == _approx(expected.rows)
            assert result_digest(got) == want


@pytest.mark.parametrize("n_cols", [1, 2, 3])
@pytest.mark.parametrize("n_rows", [0, 1, 50, 400])
def test_unique_rows_matches_row_wise_unique(n_cols, n_rows):
    rng = np.random.default_rng(n_cols * 1000 + n_rows)
    matrix = rng.integers(-4, 4, size=(n_rows, n_cols), dtype=np.int64)
    # Extreme magnitudes too: the folded key must not overflow.
    matrix[::7] *= 2 ** 60
    got_rows, got_inverse = unique_rows(matrix)
    want_rows, want_inverse = np.unique(matrix, axis=0,
                                        return_inverse=True)
    np.testing.assert_array_equal(got_rows, want_rows)
    np.testing.assert_array_equal(got_inverse, want_inverse.reshape(-1))


def _int64(values):
    return np.array(values, dtype=np.int64)


@given(values=st.one_of(
    # Spans within 4 * len + 64: the bincount branch.
    st.lists(st.integers(-40, 40), max_size=200).map(_int64),
    st.lists(st.integers(2**62 - 50, 2**62), max_size=60).map(_int64),
    # Wide spans and the extremes: the sorting fallback.
    st.lists(st.integers(-2**62, 2**62), max_size=60).map(_int64),
    st.lists(st.sampled_from([-2**62, -1, 0, 2**62]),
             max_size=60).map(_int64),
    st.lists(st.floats(allow_nan=False), max_size=60).map(
        lambda v: np.array(v, dtype=np.float64)),
))
@settings(max_examples=300, deadline=None)
def test_property_factorize_matches_unique(values):
    got_values, got_inverse = factorize(values)
    want_values, want_inverse = np.unique(values, return_inverse=True)
    assert got_values.dtype == want_values.dtype
    np.testing.assert_array_equal(got_values, want_values)
    np.testing.assert_array_equal(got_inverse, want_inverse)


def _approx(rows):
    out = []
    for row in rows:
        out.append(tuple(round(v, 9) if isinstance(v, float) else v
                         for v in row))
    return out
