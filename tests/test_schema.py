"""Unit tests for repro.schema: types, column specs and activity schemas."""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import BadValueError, SchemaError
from repro.schema import (
    ActivitySchema,
    ColumnRole,
    ColumnSpec,
    LogicalType,
    action_column,
    coerce_column,
    coerce_value,
    dimension_column,
    format_timestamp,
    measure_column,
    parse_timestamp,
    time_column,
    user_column,
)


def _format_loop_parse(text: str) -> int:
    """``parse_timestamp`` without its fast path: the paper's format,
    then ``strptime`` over each ISO format in turn."""
    text = text.strip()
    if "/" in text and ":" in text:
        date_part, _, clock = text.partition(":")
        try:
            year, month, day = (int(p) for p in date_part.split("/"))
            hour, minute = int(clock[:2]), int(clock[2:] or 0)
            dt = datetime(year, month, day, hour, minute, tzinfo=timezone.utc)
            return int(dt.timestamp())
        except ValueError as exc:
            raise SchemaError(f"bad timestamp literal: {text!r}") from exc
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M",
                "%Y-%m-%dT%H:%M", "%Y-%m-%d"):
        try:
            dt = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
            return int(dt.timestamp())
        except ValueError:
            continue
    raise SchemaError(f"bad timestamp literal: {text!r}")


def _outcome(parse, text):
    try:
        return parse(text)
    except SchemaError as exc:
        return str(exc)


def _digits(n: int, top: int):
    return st.integers(0, top).map(lambda v: f"{v:0{n}d}")


@st.composite
def _formatted_texts(draw):
    """Texts of the two shapes ``format_timestamp`` writes, with fields
    past their calendar ranges (month 13, hour 24, second 60, ...)."""
    text = "-".join((draw(_digits(4, 9999)), draw(_digits(2, 19)),
                     draw(_digits(2, 39))))
    if draw(st.booleans()):
        text += " " + ":".join(draw(_digits(2, 69)) for _ in range(3))
    return text


@st.composite
def _near_formatted_texts(draw):
    """A formatted text with one character replaced, inserted or
    dropped, or padded with whitespace."""
    text = draw(_formatted_texts())
    i = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["replace", "insert", "drop", "pad"]))
    char = draw(st.sampled_from(list("0-: T/x\uff11\t")))
    if edit == "replace":
        return text[:i] + char + text[i + 1:]
    if edit == "insert":
        return text[:i] + char + text[i:]
    if edit == "drop":
        return text[:i] + text[i + 1:]
    return f" {text}\t"


class TestParseTimestamp:
    def test_paper_format(self):
        # 2013/05/19:1000 == 2013-05-19 10:00 UTC
        ts = parse_timestamp("2013/05/19:1000")
        assert format_timestamp(ts) == "2013-05-19 10:00:00"

    def test_iso_date(self):
        ts = parse_timestamp("2013-05-21")
        assert format_timestamp(ts) == "2013-05-21"

    def test_iso_datetime_space(self):
        ts = parse_timestamp("2013-05-21 14:30")
        assert format_timestamp(ts) == "2013-05-21 14:30:00"

    def test_iso_datetime_t_and_seconds(self):
        ts = parse_timestamp("2013-05-21T14:30:05")
        assert format_timestamp(ts) == "2013-05-21 14:30:05"

    def test_ordering_of_paper_timestamps(self):
        earlier = parse_timestamp("2013/05/19:1000")
        later = parse_timestamp("2013/05/20:0800")
        assert earlier < later

    def test_bad_literal_raises(self):
        with pytest.raises(SchemaError):
            parse_timestamp("not a time")

    def test_bad_paper_format_raises(self):
        with pytest.raises(SchemaError):
            parse_timestamp("2013/xx/19:1000")

    def test_day_roundtrip(self):
        assert parse_timestamp("2013-05-20") - parse_timestamp(
            "2013-05-19") == 86400

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(_formatted_texts(), _near_formatted_texts(),
                          st.text(max_size=22)))
    @example(text="2013-05-21 24:00:00")
    @example(text="2013-02-29")
    @example(text="2012-02-29 23:59:60")
    @example(text="0000-01-01")
    @example(text=" 2013-05-21\n")
    @example(text="\uff12\uff10\uff11\uff13-05-21")
    def test_reads_what_the_format_loop_reads(self, text):
        assert _outcome(parse_timestamp, text) == \
            _outcome(_format_loop_parse, text)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-30610224000, 253402300799))  # years 1000..9999
    def test_reads_what_format_timestamp_writes(self, seconds):
        assert parse_timestamp(format_timestamp(seconds)) == seconds


class TestLogicalType:
    def test_integer_like(self):
        assert LogicalType.INT.is_integer_like
        assert LogicalType.TIMESTAMP.is_integer_like
        assert not LogicalType.STRING.is_integer_like
        assert not LogicalType.FLOAT.is_integer_like

    def test_numpy_dtypes(self):
        assert LogicalType.STRING.numpy_dtype() == np.dtype(object)
        assert LogicalType.INT.numpy_dtype() == np.dtype(np.int64)
        assert LogicalType.TIMESTAMP.numpy_dtype() == np.dtype(np.int64)
        assert LogicalType.FLOAT.numpy_dtype() == np.dtype(np.float64)

    def test_coerce_string(self):
        assert coerce_value(5, LogicalType.STRING) == "5"

    def test_coerce_timestamp_from_string(self):
        assert coerce_value("2013-05-19", LogicalType.TIMESTAMP) == \
            parse_timestamp("2013-05-19")

    def test_coerce_timestamp_from_int(self):
        assert coerce_value(12345, LogicalType.TIMESTAMP) == 12345

    def test_coerce_numerics(self):
        assert coerce_value("7", LogicalType.INT) == 7
        assert coerce_value("2.5", LogicalType.FLOAT) == 2.5

    @pytest.mark.parametrize("value, ltype", [
        ("abc", LogicalType.INT), ("2.5", LogicalType.INT),
        ("abc", LogicalType.FLOAT), (None, LogicalType.INT),
        ("yesterday", LogicalType.TIMESTAMP)])
    def test_a_bad_value_is_a_schema_error(self, value, ltype):
        with pytest.raises(BadValueError,
                           match=f"bad {ltype.value} value {value!r}") as err:
            coerce_value(value, ltype)
        assert isinstance(err.value, SchemaError)
        assert err.value.row is None

    @pytest.mark.parametrize("ltype, good, bad", [
        (LogicalType.INT, "5", "x"), (LogicalType.FLOAT, "1.5", "x"),
        (LogicalType.TIMESTAMP, "2013-05-19", "x"),
        (LogicalType.INT, 1, 2**64)])
    @pytest.mark.parametrize("row", [0, 537, 999])
    def test_a_column_names_its_first_bad_value(self, ltype, good, bad,
                                                 row):
        values = [good] * 1000
        values[row] = values[-1] = bad
        with pytest.raises(BadValueError,
                           match=f"bad {ltype.value} value {bad!r}") as err:
            coerce_column(tuple(values), ltype)
        assert err.value.row == row


class TestColumnSpec:
    def test_role_type_enforcement(self):
        with pytest.raises(SchemaError):
            ColumnSpec("u", LogicalType.INT, ColumnRole.USER)
        with pytest.raises(SchemaError):
            ColumnSpec("t", LogicalType.STRING, ColumnRole.TIME)
        with pytest.raises(SchemaError):
            ColumnSpec("a", LogicalType.INT, ColumnRole.ACTION)

    def test_measure_must_be_numeric(self):
        with pytest.raises(SchemaError):
            measure_column("gold", LogicalType.STRING)

    def test_bad_name(self):
        with pytest.raises(SchemaError):
            ColumnSpec("", LogicalType.INT, ColumnRole.MEASURE)
        with pytest.raises(SchemaError):
            ColumnSpec("a b", LogicalType.INT, ColumnRole.MEASURE)

    def test_helpers(self):
        assert user_column().role is ColumnRole.USER
        assert time_column().role is ColumnRole.TIME
        assert action_column().role is ColumnRole.ACTION
        assert dimension_column("country").ltype is LogicalType.STRING
        assert measure_column("gold").ltype is LogicalType.INT


class TestActivitySchema:
    def test_build_and_accessors(self, game_schema):
        assert game_schema.user.name == "player"
        assert game_schema.time.name == "time"
        assert game_schema.action.name == "action"
        assert [d.name for d in game_schema.dimensions] == ["role", "country"]
        assert [m.name for m in game_schema.measures] == ["gold"]
        assert game_schema.names() == [
            "player", "time", "action", "role", "country", "gold"]
        assert len(game_schema) == 6
        assert "country" in game_schema
        assert "nope" not in game_schema

    def test_index_of(self, game_schema):
        assert game_schema.index_of("action") == 2
        with pytest.raises(SchemaError):
            game_schema.index_of("nope")

    def test_unknown_column(self, game_schema):
        with pytest.raises(SchemaError):
            game_schema.column("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            ActivitySchema.build("u", "t", "a", dimensions=["u"])

    def test_missing_role_rejected(self):
        cols = (user_column("u"), time_column("t"))
        with pytest.raises(SchemaError, match="action"):
            ActivitySchema(cols)

    def test_two_user_columns_rejected(self):
        cols = (user_column("u"), user_column("v"), time_column("t"),
                action_column("a"))
        with pytest.raises(SchemaError):
            ActivitySchema(cols)

    def test_list_dimensions_default_to_string(self):
        schema = ActivitySchema.build("u", "t", "a",
                                      dimensions=["country"],
                                      measures=["gold"])
        assert schema.column("country").ltype is LogicalType.STRING
        assert schema.column("gold").ltype is LogicalType.INT

    def test_cohort_attribute_validation(self, game_schema):
        game_schema.validate_cohort_attributes(["country"])
        game_schema.validate_cohort_attributes(["time", "role"])
        with pytest.raises(SchemaError):
            game_schema.validate_cohort_attributes(["player"])
        with pytest.raises(SchemaError):
            game_schema.validate_cohort_attributes(["action"])
        with pytest.raises(SchemaError):
            game_schema.validate_cohort_attributes([])
