"""COHANA engine tests: both executors vs the oracle, pruning, planning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CatalogError
from repro.cohana import CohanaEngine, extract_time_bounds
from repro.cohana.vectorized import unique_rows
from repro.cohort import (
    AggregateSpec,
    Between,
    CohortQuery,
    Compare,
    age_ref,
    attr,
    birth,
    conjoin,
    eq,
    evaluate as oracle_evaluate,
    lit,
)
from repro.table import ActivityTable

from helpers import make_game_schema

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
        # Default (auto) mode: role = "dwarf" prunes the chunk whose
        # role dictionary lacks "dwarf", so its users are never seen —
        # with identical results.
        decoded, dstats = engine.query_with_stats(Q1_TEXT,
                                                  scan_mode="decoded")
        auto, stats = engine.query_with_stats(Q1_TEXT)
        assert auto.rows == decoded.rows
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
    birth_action = draw(_actions)
    birth_cond = draw(st.sampled_from([
        None,
        eq("role", "dwarf"),
        Between(attr("time"), lit(0), lit(20 * 86400)),
        conjoin(eq("role", "wizard"), eq("country", "CN")),
    ]))
    age_cond = draw(st.sampled_from([
        None,
        eq("action", "shop"),
        Compare(age_ref(), "<", lit(5)),
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
                                      ("time", "country")]))
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


def _approx(rows):
    out = []
    for row in rows:
        out.append(tuple(round(v, 9) if isinstance(v, float) else v
                         for v in row))
    return out
