"""Unit tests for repro.table: activity tables, construction from rows,
CSV round-trip."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BadValueError, PrimaryKeyError, SchemaError
from repro.schema import (
    ActivitySchema,
    LogicalType,
    coerce_value,
    format_timestamp,
    parse_timestamp,
)
from repro.storage import compress, serialize
from repro.table import ActivityTable, read_csv, write_csv
from repro.table.activity import ROW_BLOCK, _as_python, primary_key_order

from helpers import TABLE1_ROWS, make_game_schema


#: Every logical type: a STRING and a TIMESTAMP dimension, an INT and a
#: FLOAT measure.
_MIXED_SCHEMA = ActivitySchema.build(
    user="player", time="time", action="action",
    dimensions={"country": LogicalType.STRING,
                "seen": LogicalType.TIMESTAMP},
    measures={"gold": LogicalType.INT, "rate": LogicalType.FLOAT})


class TestConstruction:
    def test_from_rows_matches_table1(self, table1, game_schema):
        assert len(table1) == 10
        assert table1.schema.names()[0] == "player"
        one = ActivityTable.from_rows(game_schema, [TABLE1_ROWS[0]])
        assert one.row(0)["player"] == "001"

    def test_from_row_dicts(self, game_schema):
        rows = [dict(player="x", time="2013-05-19", action="launch",
                     role="dwarf", country="China", gold=1)]
        table = ActivityTable.from_rows(game_schema, rows)
        assert table.row(0)["gold"] == 1
        rows = [dict(player="002", time="2013-05-20", action="launch",
                     role="wizard", country="US", gold=0),
                dict(player="001", time="2013-05-19", action="launch",
                     role="dwarf", country="AU", gold=0)]
        table = ActivityTable.from_rows(game_schema, rows)
        assert table.users.tolist() == ["002", "001"]  # input order

    def test_ragged_row_rejected(self, game_schema):
        with pytest.raises(SchemaError):
            ActivityTable.from_rows(game_schema, [("x", "2013-05-19")])
        with pytest.raises(SchemaError, match="row has 7 values"):
            ActivityTable.from_rows(game_schema, [TABLE1_ROWS[0] + (1,)])

    def test_missing_column_rejected(self, game_schema):
        with pytest.raises(SchemaError, match="missing column"):
            ActivityTable(game_schema, {"player": ["a"]})
        with pytest.raises(SchemaError,
                           match=r"missing values for columns: \['role'"):
            ActivityTable.from_rows(game_schema, [dict(
                player="001", time="2013-05-19", action="launch")])

    def test_extra_column_rejected(self, game_schema, table1):
        cols = {n: table1.column(n) for n in game_schema.names()}
        cols["bogus"] = np.zeros(10)
        with pytest.raises(SchemaError, match="not in schema"):
            ActivityTable(game_schema, cols)
        with pytest.raises(SchemaError,
                           match=r"unknown columns: \['bogus'\]"):
            ActivityTable.from_rows(game_schema, [dict(
                player="001", time="2013-05-19", action="launch",
                role="r", country="c", gold=0, bogus=1)])

    def test_bad_value_names_column_and_row(self, game_schema):
        rows = [("a", "2013-05-19", "launch", "d", "C", 0),
                ("b", "2013-05-19", "launch", "d", "C", "abc")]
        with pytest.raises(BadValueError,
                           match="column 'gold': bad int value 'abc'") as err:
            ActivityTable.from_rows(game_schema, rows)
        assert err.value.row == 1
        with pytest.raises(BadValueError,
                           match=f"bad int value {2**63}") as err:
            ActivityTable.from_rows(game_schema, [rows[0][:5] + (2**63,)])
        assert err.value.row == 0

    def test_length_mismatch_rejected(self, game_schema, table1):
        cols = {n: table1.column(n) for n in game_schema.names()}
        cols["gold"] = np.zeros(3, dtype=np.int64)
        with pytest.raises(SchemaError, match="expected"):
            ActivityTable(game_schema, cols)

    def test_non_string_user_rejected(self, game_schema):
        cols = dict(player=np.array([1], dtype=np.int64),
                    time=[0], action=["a"], role=["r"], country=["c"],
                    gold=[0])
        with pytest.raises(SchemaError):
            ActivityTable(game_schema, cols)

    def test_empty(self, game_schema):
        table = ActivityTable.empty(game_schema)
        assert len(table) == 0
        assert table.to_rows() == []
        assert table.is_sorted_by_primary_key()


class TestAccessors:
    def test_row_values(self, table1):
        row = table1.row(0)
        assert row["player"] == "001"
        assert row["action"] == "launch"
        assert row["time"] == parse_timestamp("2013/05/19:1000")

    def test_iter_rows_count(self, table1):
        assert sum(1 for _ in table1.iter_rows()) == 10

    def test_column_types(self, table1):
        assert table1.times.dtype == np.int64
        assert table1.column("gold").dtype == np.int64
        assert table1.users.dtype == object

    def test_unknown_column(self, table1):
        with pytest.raises(SchemaError):
            table1.column("nope")

    def test_take_and_slice(self, table1):
        taken = table1.take(np.array([0, 2]))
        assert len(taken) == 2
        assert taken.row(1)["gold"] == 100
        sliced = table1.slice(0, 3)
        assert len(sliced) == 3

    def test_concat(self, table1):
        both = table1.slice(0, 4).concat(table1.slice(4, 10))
        assert both.to_rows() == table1.to_rows()

    def test_concat_schema_mismatch(self, table1):
        other_schema = make_game_schema()
        other = ActivityTable.empty(other_schema)
        # Same schema value: concat works even with a distinct instance.
        assert len(table1.concat(other)) == 10

    def test_distinct_users(self, table1):
        assert table1.distinct_users() == ["001", "002", "003"]

    def test_repr(self, table1):
        assert "10 rows" in repr(table1)


def _typed(row):
    return [(type(v), v) for v in row]


class TestToRows:
    """``to_rows`` builds rows column by column; they must equal the
    per-cell definition in value and in type."""

    @pytest.fixture
    def mixed(self):
        n = 23
        return ActivityTable(_MIXED_SCHEMA, {
            "player": np.array([np.str_(f"u{i % 5}") if i % 2 else
                                f"u{i % 5}" for i in range(n)],
                               dtype=object),
            "time": np.arange(n, dtype=np.int64) * 3600 - 7200,
            "action": ["launch", "shop", "fight"] * 7 + ["é", "日本"],
            "country": np.array(["Perú"] * n),
            "seen": np.arange(n, dtype=np.int64) + 1_500_000_000,
            "gold": np.arange(n, dtype=np.int64) - 11,
            "rate": np.linspace(-1.5, 2.25, n),
        })

    @staticmethod
    def per_cell(table):
        cols = [table.column(n) for n in table.schema.names()]
        return [tuple(_as_python(col[i]) for col in cols)
                for i in range(len(table))]

    def test_equal_to_the_per_cell_definition(self, mixed):
        expected = self.per_cell(mixed)
        rows = mixed.to_rows()
        assert rows == expected
        assert [_typed(r) for r in rows] == [_typed(r) for r in expected]
        assert {type(v) for r in rows for v in r} == {str, int, float}
        assert repr(rows) == repr(expected)

    def test_blocks_concatenate_to_the_rows(self, mixed):
        n = 2 * ROW_BLOCK + 3
        long = mixed.take(np.arange(n) % len(mixed))
        blocks = list(long.row_blocks())
        assert [len(b) for b in blocks] == [ROW_BLOCK, ROW_BLOCK, 3]
        assert [r for b in blocks for r in b] == self.per_cell(long)
        assert list(mixed.slice(0, 0).row_blocks()) == []

    def test_equality_still_compares_rows(self, mixed):
        assert mixed == mixed.slice(0, len(mixed))
        assert mixed != mixed.slice(1, len(mixed))


class TestPrimaryKey:
    def test_table1_valid(self, table1):
        table1.check_primary_key()  # should not raise

    def test_duplicate_detected(self, game_schema, tmp_path):
        row = ("x", "2013-05-19", "launch", "dwarf", "China", 0)
        table = ActivityTable.from_rows(game_schema, [row, row])
        assert len(table) == 2  # construction does not check keys
        with pytest.raises(PrimaryKeyError):
            table.check_primary_key()
        path = tmp_path / "t.csv"
        write_csv(table, path)
        with pytest.raises(PrimaryKeyError, match="duplicate primary key"):
            read_csv(path, game_schema)

    def test_duplicate_names_the_earliest_repeated_row(self, game_schema):
        """Rows 2 and 3 repeat rows 0 and 1. Row 2 comes first in the
        input, so its key is named, though row 3's key sorts first; the
        key is row 2's own values, an ``np.str_`` user included."""
        rows = [("b", "2013-05-20", "shop", "d", "C", 0),
                ("a", "2013-05-19", "launch", "d", "C", 1),
                ("b", "2013-05-20", "shop", "d", "C", 2),
                ("a", "2013-05-19", "launch", "d", "C", 3)]
        table = ActivityTable.from_rows(game_schema, rows)
        message = ("duplicate primary key ({}, 1369008000, 'shop'): each "
                   "user may perform a given action at most once per "
                   "time instant")
        with pytest.raises(PrimaryKeyError) as err:
            table.check_primary_key()
        assert str(err.value) == message.format("'b'")
        users = np.empty(4, dtype=object)
        users[:] = ["b", "a", np.str_("b"), "a"]
        columns = {n: table.column(n) for n in game_schema.names()}
        with pytest.raises(PrimaryKeyError) as err:
            ActivityTable(game_schema,
                          {**columns, "player": users}).check_primary_key()
        assert str(err.value) == message.format("np.str_('b')")

    def test_same_time_different_action_ok(self, game_schema):
        rows = [("x", "2013-05-19", "launch", "d", "C", 0),
                ("x", "2013-05-19", "shop", "d", "C", 5)]
        table = ActivityTable.from_rows(game_schema, rows)
        table.check_primary_key()

    def test_sort_produces_clustering_and_time_order(self, game_schema):
        rows = [
            ("b", "2013-05-20", "launch", "d", "C", 0),
            ("a", "2013-05-21", "shop", "d", "C", 1),
            ("a", "2013-05-19", "launch", "d", "C", 0),
            ("b", "2013-05-22", "shop", "d", "C", 2),
        ]
        table = ActivityTable.from_rows(game_schema, rows)
        assert not table.is_sorted_by_primary_key()
        sorted_table = table.sorted_by_primary_key()
        assert sorted_table.is_sorted_by_primary_key()
        assert sorted_table.users.tolist() == ["a", "a", "b", "b"]
        times = sorted_table.times
        assert times[0] < times[1] and times[2] < times[3]

    def test_user_blocks(self, table1):
        blocks = list(table1.user_blocks())
        assert blocks == [("001", 0, 5), ("002", 5, 8), ("003", 8, 10)]

    def test_equality(self, table1):
        assert table1 == make_table_copy(table1)
        assert table1 != table1.slice(0, 5)
        assert table1.__eq__(42) is NotImplemented


def make_table_copy(table):
    return ActivityTable.from_rows(table.schema, table.to_rows())


#: Times that put the folded key's domain below, at and beyond 2**63.
_key_times = st.sampled_from(
    [0, 1, 2**61, 2**62 - 1, 2**62, 2**63 - 1, -1, -2**62, -2**63])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), _key_times, st.integers(0, 2)),
                max_size=40))
def test_primary_key_order_is_the_stable_lexsort(keys):
    users, times, actions = np.array(keys, dtype=np.int64).reshape(-1, 3).T
    assert primary_key_order(users, times, actions).tolist() == \
        np.lexsort((actions, times, users)).tolist()


class TestCsvRoundTrip:
    def test_roundtrip(self, tmp_path, table1):
        path = tmp_path / "t.csv"
        write_csv(table1, path)
        back = read_csv(path, table1.schema)
        assert back == table1

    def test_header_order_insensitive(self, tmp_path, game_schema):
        path = tmp_path / "t.csv"
        path.write_text(
            "gold,country,role,action,time,player\n"
            "5,China,bandit,launch,2013-05-19,003\n")
        table = read_csv(path, game_schema)
        assert table.row(0)["player"] == "003"
        assert table.row(0)["gold"] == 5

    def test_missing_column(self, tmp_path, game_schema):
        path = tmp_path / "t.csv"
        path.write_text("player,time\n001,2013-05-19\n")
        with pytest.raises(SchemaError, match="missing columns"):
            read_csv(path, game_schema)

    def test_empty_file(self, tmp_path, game_schema):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_csv(path, game_schema)

    def test_ragged_line(self, tmp_path, game_schema):
        path = tmp_path / "t.csv"
        path.write_text("player,time,action,role,country,gold\n001,x\n")
        with pytest.raises(SchemaError, match="fields"):
            read_csv(path, game_schema)

    def test_blank_lines_skipped(self, tmp_path, game_schema):
        path = tmp_path / "t.csv"
        path.write_text("player,time,action,role,country,gold\n"
                        "\n001,2013-05-19,launch,d,C,0\n\n")
        assert len(read_csv(path, game_schema)) == 1

    def test_rows_come_back_in_file_order(self, tmp_path, table1):
        reversed_table = table1.take(np.arange(len(table1))[::-1])
        path = tmp_path / "t.csv"
        write_csv(reversed_table, path)
        back = read_csv(path, table1.schema)
        assert back == reversed_table
        assert not back.is_sorted_by_primary_key()

    def test_bad_cell_names_line_and_column(self, tmp_path, game_schema):
        path = tmp_path / "t.csv"
        path.write_text("player,time,action,role,country,gold\n"
                        "001,2013-05-19,launch,d,C,0\n\n"
                        "002,2013-05-19,launch,d,C,abc\n")
        with pytest.raises(BadValueError) as err:
            read_csv(path, game_schema)
        assert str(err.value) == \
            f"{path}:4: column 'gold': bad int value 'abc'"
        path.write_text("player,time,action,role,country,gold\n"
                        "001,yesterday,launch,d,C,0\n")
        with pytest.raises(SchemaError,
                           match=":2: column 'time': bad timestamp"):
            read_csv(path, game_schema)


#: Cells that exercise CSV quoting: separators, quotes, line breaks.
_csv_texts = st.sampled_from(["", "a", "b,c", 'q"t', "two\nlines", "ñ",
                              " sp "])

@st.composite
def shuffled_tables(draw):
    """A table of :data:`_MIXED_SCHEMA` with distinct primary keys, in a
    drawn row order."""
    keys = draw(st.lists(st.tuples(_csv_texts, st.integers(0, 2**31),
                                   _csv_texts),
                         unique=True, max_size=30))
    rows = [key + (draw(_csv_texts), draw(st.integers(0, 2**31)),
                   draw(st.integers(-2**63, 2**63 - 1)),
                   draw(st.floats(allow_nan=False, allow_infinity=False)))
            for key in keys]
    return ActivityTable.from_rows(_MIXED_SCHEMA, draw(st.permutations(rows)))


class TestCsvIsAWriterInput:
    @settings(max_examples=60, deadline=None)
    @given(table=shuffled_tables(),
           chunk_rows=st.sampled_from([1, 8, 4096]))
    def test_written_bytes_equal_the_tables(self, table, chunk_rows):
        """``read_csv`` keeps file order and the writer sorts, so a
        table through CSV compresses to the bytes of the table itself."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_csv(table, path)
            back = read_csv(path, table.schema)
        assert back == table
        assert serialize(compress(back, chunk_rows)) == \
            serialize(compress(table, chunk_rows))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_columns_equal_coerce_value_per_cell(self, data):
        """Every column of ``from_rows`` equals ``coerce_value`` applied
        to each of its cells, for cells given as ``str`` or ``int``."""
        as_text = st.integers(-10**6, 10**6).map(str)
        cells = {
            LogicalType.STRING: st.one_of(_csv_texts,
                                          st.integers(-99, 99)),
            LogicalType.INT: st.one_of(st.integers(-2**63, 2**63 - 1),
                                       as_text),
            LogicalType.FLOAT: st.one_of(st.integers(-10**6, 10**6),
                                         as_text),
            LogicalType.TIMESTAMP: st.one_of(
                st.integers(0, 2**31),
                st.integers(0, 2**31).map(format_timestamp)),
        }
        schema = _MIXED_SCHEMA
        n = data.draw(st.integers(0, 12))
        columns = [data.draw(st.lists(cells[spec.ltype], min_size=n,
                                      max_size=n)) for spec in schema]
        table = ActivityTable.from_rows(schema, list(zip(*columns)))
        assert len(table) == n
        for spec, values in zip(schema, columns):
            got = table.column(spec.name).tolist()
            expected = [coerce_value(v, spec.ltype) for v in values]
            assert got == expected
            assert [type(v) for v in got] == [type(v) for v in expected]
