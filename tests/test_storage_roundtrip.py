"""Integration & property tests: compress → (serialize →) decompress."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datagen import GameConfig, generate, scale_dataset
from repro.errors import StorageError
from repro.schema import ActivitySchema, LogicalType
from repro.storage import (
    collect_stats,
    compress,
    deserialize,
    load,
    save,
    serialize,
)
from repro.table import ActivityTable

from helpers import (
    make_game_schema,
    reference_compress,
    reference_sorted_by_primary_key,
)


class TestCompress:
    def test_roundtrip_table1(self, table1):
        compressed = compress(table1, target_chunk_rows=4)
        assert compressed.n_rows == 10
        assert compressed.n_users == 3
        assert compressed.decompress() == table1

    def test_single_chunk(self, table1):
        compressed = compress(table1, target_chunk_rows=1000)
        assert compressed.n_chunks == 1

    def test_user_never_spans_chunks(self, table1):
        compressed = compress(table1, target_chunk_rows=2)
        seen: dict[int, int] = {}
        for chunk in compressed.chunks:
            for gid, _, _ in chunk.users.triples():
                assert gid not in seen, "user appears in two chunks"
                seen[gid] = chunk.index
        assert len(seen) == 3

    def test_unsorted_input_is_sorted(self, game_schema):
        rows = [
            ("b", "2013-05-20", "launch", "d", "C", 0),
            ("a", "2013-05-19", "launch", "d", "C", 0),
        ]
        table = ActivityTable.from_rows(game_schema, rows)
        compressed = compress(table)
        assert compressed.decompress().users.tolist() == ["a", "b"]

    def test_bad_chunk_rows(self, table1):
        with pytest.raises(StorageError):
            compress(table1, target_chunk_rows=0)

    def test_global_id_lookup(self, table1):
        compressed = compress(table1)
        gid = compressed.global_id("action", "launch")
        assert compressed.value_of("action", gid) == "launch"
        assert compressed.global_id("action", "no_such_action") is None

    def test_empty_table(self, game_schema):
        compressed = compress(ActivityTable.empty(game_schema))
        assert compressed.n_rows == 0
        assert compressed.n_chunks == 0
        assert compressed.decompress() == ActivityTable.empty(game_schema)

    def test_repr(self, table1):
        assert "chunks" in repr(compress(table1))


class TestPruningMetadata:
    def test_action_pruning(self, table1):
        compressed = compress(table1, target_chunk_rows=5)
        assert compressed.n_chunks == 2
        shop_gid = compressed.global_id("action", "shop")
        flags = [compressed.chunk_may_contain_action(c, shop_gid)
                 for c in compressed.chunks]
        # players 001 & 002 shop; player 003 never shops
        assert flags[0] is True

    def test_chunk_without_action_pruned(self, game_schema):
        rows = [
            ("a", "2013-05-19", "launch", "d", "C", 0),
            ("b", "2013-05-19", "fight", "d", "C", 0),
        ]
        table = ActivityTable.from_rows(game_schema, rows)
        compressed = compress(table, target_chunk_rows=1)
        assert compressed.n_chunks == 2
        launch_gid = compressed.global_id("action", "launch")
        flags = [compressed.chunk_may_contain_action(c, launch_gid)
                 for c in compressed.chunks]
        assert flags == [True, False]

    def test_time_range_pruning(self, table1):
        compressed = compress(table1, target_chunk_rows=5)
        chunk = compressed.chunks[0]
        assert compressed.chunk_overlaps_range(chunk, "time", None, None)
        assert not compressed.chunk_overlaps_range(chunk, "time",
                                                   2**60, None)

    def test_range_pruning_requires_integer_column(self, table1):
        compressed = compress(table1, target_chunk_rows=5)
        with pytest.raises(StorageError):
            compressed.chunk_overlaps_range(compressed.chunks[0],
                                            "country", None, None)


class TestSerialization:
    def test_bytes_roundtrip(self, table1):
        compressed = compress(table1, target_chunk_rows=4)
        data = serialize(compressed)
        back = deserialize(data)
        assert back.decompress() == table1
        assert back.target_chunk_rows == 4
        assert back.n_chunks == compressed.n_chunks

    def test_file_roundtrip(self, tmp_path, table1):
        compressed = compress(table1)
        path = tmp_path / "t.cohana"
        n = save(compressed, path)
        assert path.stat().st_size == n
        assert load(path).decompress() == table1

    def test_bad_magic(self):
        with pytest.raises(StorageError, match="magic"):
            deserialize(b"NOTMAGIC" + b"\x00" * 64)

    def test_truncated(self, table1):
        data = serialize(compress(table1))
        with pytest.raises(StorageError):
            deserialize(data[:len(data) // 2])

    def test_trailing_bytes(self, table1):
        data = serialize(compress(table1))
        with pytest.raises(StorageError, match="trailing"):
            deserialize(data + b"\x00")

    def test_bad_version(self, table1):
        data = bytearray(serialize(compress(table1)))
        data[8] = 99  # version u16 little-endian low byte
        with pytest.raises(StorageError, match="version"):
            deserialize(bytes(data))


class TestStats:
    def test_total_accounts_for_everything(self, table1):
        compressed = compress(table1, target_chunk_rows=4)
        stats = collect_stats(compressed)
        assert stats.n_rows == 10
        assert stats.n_chunks == compressed.n_chunks
        assert stats.total_bytes > 0
        assert stats.bits_per_tuple > 0
        assert set(stats.columns) == {"time", "action", "role", "country",
                                      "gold"}

    def test_larger_chunks_cost_no_less(self, table1):
        small = collect_stats(compress(table1, target_chunk_rows=2))
        big = collect_stats(compress(table1, target_chunk_rows=1000))
        # Figure 7's effect needs larger data to show; here we only check
        # both measurements are sane and comparable.
        assert small.total_bytes > 0 and big.total_bytes > 0

    def test_empty_table_stats(self, game_schema):
        stats = collect_stats(compress(ActivityTable.empty(game_schema)))
        assert stats.total_bytes >= 0
        assert stats.bits_per_tuple == 0.0


# -- property test -------------------------------------------------------------

_users = st.integers(min_value=0, max_value=20).map(lambda i: f"u{i:03d}")
_actions = st.sampled_from(["launch", "shop", "fight", "achieve"])
_countries = st.sampled_from(["AU", "CN", "US", "SG"])
_times = st.integers(min_value=0, max_value=10**7)


@st.composite
def activity_rows(draw, max_rows=60):
    n = draw(st.integers(min_value=0, max_value=max_rows))
    rows = set()
    for _ in range(n):
        rows.add((draw(_users), draw(_times), draw(_actions)))
    return [(u, t, a, "role", draw(_countries), draw(st.integers(0, 500)))
            for (u, t, a) in sorted(rows)]


@given(rows=activity_rows(),
       chunk_rows=st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_property_compress_roundtrip(rows, chunk_rows):
    schema = make_game_schema()
    table = ActivityTable.from_rows(schema, rows).sorted_by_primary_key()
    compressed = compress(table, target_chunk_rows=chunk_rows)
    assert compressed.decompress() == table
    assert compressed.n_users == len(table.distinct_users())
    # serialize roundtrip too
    assert deserialize(serialize(compressed)).decompress() == table


# -- the writer's bytes ---------------------------------------------------


#: sha256 of ``serialize(compress(table, 2048))`` for ``table`` =
#: ``scale_dataset(generate(GameConfig(n_users=60, seed=5)), 3)`` given
#: in reversed row order (6,198 rows, 3 chunks), recorded with the
#: row-by-row writer that :func:`helpers.reference_compress` keeps.
GOLDEN_REVERSED_GAME_DIGEST = (
    "1cc81123c176bb5cfe27b4a0edf9c2d053caec60baf566e61085be29b42def3c")

#: Key and dimension texts: NUL-ended and NUL-only values beside the
#: strings they would equal if trailing NULs were dropped.
_writer_texts = st.sampled_from(["", "\x00", "a", "a\x00", "b", "ñ"])


@st.composite
def writer_tables(draw):
    """A game-schema table in a drawn order. Keys come from small pools,
    so primary keys repeat; with ``copies`` = 20 every row is repeated
    20 times with its own ``gold``, so a run of equal keys is longer
    than a sort's small-array cut-off and only a stable sort keeps it
    in input order. String cells are ``str``, ``np.str_`` or a mix of
    both for equal values."""
    base = draw(st.lists(st.tuples(
        _writer_texts, st.integers(0, 3), _writer_texts, _writer_texts,
        _writer_texts, st.integers(-5, 5)), max_size=24))
    copies = draw(st.sampled_from([1, 20]))
    rows = [row[:5] + (row[5] * 100 + copy,)
            for copy in range(copies) for row in base]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    return _game_table(rows, draw(st.sampled_from(["str", "np", "mixed"])),
                       rng)


def _game_table(rows, cells="str", rng=None):
    """A make_game_schema() table of ``rows``; with ``cells`` "np" every
    string cell is an ``np.str_``, with "mixed" a random half are."""
    schema = make_game_schema()
    columns = {}
    for i, spec in enumerate(schema):
        values = [row[i] for row in rows]
        if spec.ltype is LogicalType.STRING and cells != "str":
            flags = (rng.random(len(values)) < 0.5 if cells == "mixed"
                     else [True] * len(values))
            values = [np.str_(v) if flag else v
                      for v, flag in zip(values, flags)]
            column = np.empty(len(values), dtype=object)
            column[:] = values
            values = column
        columns[spec.name] = values
    return ActivityTable(schema, columns)


def _float_table(cells):
    """A table whose FLOAT measure holds ``cells``, one user, one row
    per cell, in reversed time order."""
    schema = ActivitySchema.build(
        user="player", time="time", action="action",
        measures={"score": LogicalType.FLOAT})
    return ActivityTable.from_rows(
        schema, [("u", len(cells) - t, "shop", cell)
                 for t, cell in enumerate(cells)])


def _sparse_ids_table():
    """100 users with a role each, then user "a" holding the first and
    last of those roles: with one user per chunk, "a"'s chunk
    dictionary is ids 0 and 99 of a 100-value global dictionary."""
    rows = [(f"u{i:03d}", 0, "launch", f"r{i:03d}", "c", i)
            for i in range(100)]
    rows += [("a", 1, "shop", "r000", "c", 0),
             ("a", 2, "shop", "r099", "c", 0)]
    return _game_table(rows)


class TestWriterBytes:
    @settings(max_examples=80, deadline=None)
    @given(table=writer_tables(), chunk_rows=st.sampled_from([1, 8, 4096]))
    @example(table=_game_table([]), chunk_rows=1)
    @example(table=_game_table([("u", t, "launch", "r", "c", gold)
                                for gold, t in enumerate((3, 1, 2, 1))]),
             chunk_rows=1)
    @example(table=_game_table(
        [("\x00", 0, "a\x00", "", "b", 0), ("", 0, "a", "\x00", "b", 1),
         ("\x00", 0, "a", "a", "b\x00", 2)], "np"), chunk_rows=8)
    # Times over the whole int64 range: the key sort's domain overflows
    # and the order comes from ``np.lexsort``.
    @example(table=_game_table(
        [(u, t, "launch", "r", "c", 0) for u in ("v", "u")
         for t in (2**63 - 1, 0, -2**63)]), chunk_rows=2)
    # Times 2**62 apart for three users and two actions: each key part
    # fits in int64 but the folded key would wrap.
    @example(table=_game_table(
        [(u, t, a, "r", "c", 0) for u in ("c", "b", "a")
         for t in (2**62, 0) for a in ("shop", "launch")]), chunk_rows=1)
    @example(table=_float_table(
        [float("nan"), -0.0, 0.0, float("inf"), float("-inf"), 1.5,
         float("nan"), -0.0]), chunk_rows=1)
    @example(table=_sparse_ids_table(), chunk_rows=1)
    def test_bytes_equal_the_row_by_row_writer(self, table, chunk_rows):
        expected = serialize(reference_compress(table, chunk_rows))
        assert serialize(compress(table, chunk_rows)) == expected
        # ``repr``, so that NaN cells compare equal and -0.0 does not
        # equal 0.0.
        assert repr(table.sorted_by_primary_key().to_rows()) == \
            repr(reference_sorted_by_primary_key(table).to_rows())

    def test_golden_reversed_multi_chunk_table(self):
        table = scale_dataset(generate(GameConfig(n_users=60, seed=5)), 3)
        table = table.take(np.arange(len(table))[::-1])
        compressed = compress(table, target_chunk_rows=2048)
        assert compressed.n_chunks == 3
        assert hashlib.sha256(serialize(compressed)).hexdigest() == \
            GOLDEN_REVERSED_GAME_DIGEST
