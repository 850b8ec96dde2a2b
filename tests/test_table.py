"""Unit tests for repro.table: activity tables, builder, CSV round-trip."""

import numpy as np
import pytest

from repro.errors import PrimaryKeyError, SchemaError
from repro.schema import ActivitySchema, LogicalType, parse_timestamp
from repro.table import (
    ActivityTable,
    ActivityTableBuilder,
    read_csv,
    write_csv,
)
from repro.table.activity import ROW_BLOCK, _as_python

from helpers import TABLE1_ROWS, make_game_schema


class TestConstruction:
    def test_from_rows_matches_table1(self, table1):
        assert len(table1) == 10
        assert table1.schema.names()[0] == "player"

    def test_from_row_dicts(self, game_schema):
        rows = [dict(player="x", time="2013-05-19", action="launch",
                     role="dwarf", country="China", gold=1)]
        table = ActivityTable.from_rows(game_schema, rows)
        assert table.row(0)["gold"] == 1

    def test_ragged_row_rejected(self, game_schema):
        with pytest.raises(SchemaError):
            ActivityTable.from_rows(game_schema, [("x", "2013-05-19")])

    def test_missing_column_rejected(self, game_schema):
        with pytest.raises(SchemaError, match="missing column"):
            ActivityTable(game_schema, {"player": ["a"]})

    def test_extra_column_rejected(self, game_schema, table1):
        cols = {n: table1.column(n) for n in game_schema.names()}
        cols["bogus"] = np.zeros(10)
        with pytest.raises(SchemaError, match="not in schema"):
            ActivityTable(game_schema, cols)

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
        schema = ActivitySchema.build(
            user="player", time="time", action="action",
            dimensions={"country": LogicalType.STRING,
                        "seen": LogicalType.TIMESTAMP},
            measures={"gold": LogicalType.INT,
                      "rate": LogicalType.FLOAT})
        n = 23
        return ActivityTable(schema, {
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

    def test_duplicate_detected(self, game_schema):
        row = ("x", "2013-05-19", "launch", "dwarf", "China", 0)
        table = ActivityTable.from_rows(game_schema, [row, row])
        with pytest.raises(PrimaryKeyError):
            table.check_primary_key()

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


class TestBuilder:
    def test_append_and_build(self, game_schema):
        b = ActivityTableBuilder(game_schema)
        b.append(player="002", time="2013-05-20", action="launch",
                 role="wizard", country="US", gold=0)
        b.append(player="001", time="2013-05-19", action="launch",
                 role="dwarf", country="AU", gold=0)
        assert len(b) == 2
        table = b.build()
        assert table.users.tolist() == ["001", "002"]  # sorted

    def test_append_row(self, game_schema):
        b = ActivityTableBuilder(game_schema)
        b.append_row(TABLE1_ROWS[0])
        assert b.build().row(0)["player"] == "001"

    def test_append_row_wrong_arity(self, game_schema):
        with pytest.raises(SchemaError):
            ActivityTableBuilder(game_schema).append_row(("just", "two"))

    def test_missing_column_rejected(self, game_schema):
        b = ActivityTableBuilder(game_schema)
        with pytest.raises(SchemaError, match="missing"):
            b.append(player="001", time="2013-05-19", action="launch")

    def test_unknown_column_rejected(self, game_schema):
        b = ActivityTableBuilder(game_schema)
        with pytest.raises(SchemaError, match="unknown"):
            b.append(player="001", time="2013-05-19", action="launch",
                     role="r", country="c", gold=0, bogus=1)

    def test_duplicate_pk_rejected_on_build(self, game_schema):
        b = ActivityTableBuilder(game_schema)
        for _ in range(2):
            b.append(player="001", time="2013-05-19", action="launch",
                     role="r", country="c", gold=0)
        with pytest.raises(PrimaryKeyError):
            b.build()
        # but tolerated when checking is off
        assert len(b.build(check_primary_key=False)) == 2


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
