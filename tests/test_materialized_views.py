"""Materialized cohort views: DDL, per-shard partials, incremental
refresh, persistence, service dispositions, and the merge invariants
they rest on.

Covers the PR-6 tentpole (``CREATE MATERIALIZED VIEW`` through parser,
engine catalog, per-shard partial store, service and CLI) plus the
satellite work: the randomized partial-merge == whole-table invariant
suite for every aggregate, the no-user-spans-a-chunk regression pin,
the decode memoization on storage objects, and the warm-partials-after-
byte-identical-reload bugfix.
"""

import json
import os
import random
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cohana import CohanaEngine, parse_cohort_query
from repro.cohana.binder import bind_cohort_query
from repro.cohana.parser import (
    ParsedCohortQuery,
    ParsedCreateView,
    ParsedDropView,
    parse_statement,
)
from repro.cohana.pipeline import (
    ChunkPartial,
    ExecStats,
    MergeState,
    build_rows,
    shard_value_partial,
)
from repro.errors import CatalogError, ParseError, StorageError
from repro.service import QueryService
from repro.service.fingerprint import view_fingerprint
from repro.storage import append_shard, compress, load, save
from repro.table import ActivityTable
from repro.views import decode_partial, encode_partial
from repro.views.store import PARTIAL_VERSION, DiskViewStore

from helpers import make_game_schema, make_table1

QUERY = ('SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent FROM G '
         'BIRTH FROM action = "launch" COHORT BY country')
DDL = "CREATE MATERIALIZED VIEW weekly AS " + QUERY

ACTIONS = ("launch", "shop", "fight", "idle")
ROLES = ("dwarf", "wizard", "bandit", "assassin")
COUNTRIES = ("Australia", "China", "Canada", "Peru")

#: SELECT fragments for every aggregate the merge must be exact for.
AGG_EXPRS = {
    "COUNT": "Count(*)",
    "SUM": "Sum(gold)",
    "AVG": "Avg(gold)",
    "MIN": "Min(gold)",
    "MAX": "Max(gold)",
    "USERCOUNT": "UserCount()",
}


def _random_table(seed: int, n_users: int = 24) -> ActivityTable:
    """A random activity table: every user gets 1-9 tuples at distinct
    timestamps with random actions/dimensions/gold."""
    rng = random.Random(seed)
    rows = []
    for u in range(n_users):
        player = f"u{u:03d}"
        role = rng.choice(ROLES)
        country = rng.choice(COUNTRIES)
        slots = rng.sample(range(28 * 4), rng.randint(1, 9))
        for slot in sorted(slots):
            day, hour = divmod(slot, 4)
            rows.append((player, f"2013/05/{day + 1:02d}:{hour:02d}15",
                         rng.choice(ACTIONS), role, country,
                         rng.randint(0, 90)))
    return ActivityTable.from_rows(make_game_schema(), rows)


def _user_batches(table: ActivityTable, n: int) -> list[ActivityTable]:
    """Contiguous user-disjoint slices of a sorted activity table."""
    table = table.sorted_by_primary_key()
    blocks = list(table.user_blocks())
    per = max(1, -(-len(blocks) // n))
    return [table.slice(blocks[i][1],
                        blocks[min(i + per, len(blocks)) - 1][2])
            for i in range(0, len(blocks), per)]


def _shard_engine(tmp_path, table: ActivityTable, n_batches: int = 3,
                  chunk_rows: int = 16) -> tuple[CohanaEngine, object]:
    """Ingest ``table`` as ``n_batches`` shards and load it as ``G``."""
    sdir = tmp_path / "G"
    for batch in _user_batches(table, n_batches):
        append_shard(sdir, batch, target_chunk_rows=chunk_rows)
    engine = CohanaEngine()
    engine.load_table("G", sdir)
    return engine, sdir


# ---------------------------------------------------------------------------
# Parser: the DDL statements
# ---------------------------------------------------------------------------


class TestParseStatement:
    def test_plain_query_passes_through(self):
        parsed = parse_statement(QUERY)
        assert isinstance(parsed, ParsedCohortQuery)
        assert parsed.table == "G"

    def test_create_view(self):
        parsed = parse_statement(DDL)
        assert isinstance(parsed, ParsedCreateView)
        assert parsed.name == "weekly"
        assert not parsed.or_replace
        assert parsed.query.table == "G"
        # The captured text is the query exactly as written after AS.
        assert parsed.query_text == QUERY

    def test_create_or_replace(self):
        parsed = parse_statement(
            "CREATE OR REPLACE MATERIALIZED VIEW w AS " + QUERY)
        assert isinstance(parsed, ParsedCreateView)
        assert parsed.or_replace

    def test_create_keeps_trailing_semicolonless_text(self):
        parsed = parse_statement(DDL + ";")
        assert parsed.query_text == QUERY

    def test_drop_view(self):
        parsed = parse_statement("DROP MATERIALIZED VIEW weekly")
        assert isinstance(parsed, ParsedDropView)
        assert parsed.name == "weekly"
        assert not parsed.if_exists

    def test_drop_if_exists(self):
        parsed = parse_statement(
            "DROP MATERIALIZED VIEW IF EXISTS weekly;")
        assert parsed.if_exists

    def test_drop_rejects_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_statement("DROP MATERIALIZED VIEW weekly extra")

    def test_create_requires_as(self):
        with pytest.raises(ParseError):
            parse_statement("CREATE MATERIALIZED VIEW weekly " + QUERY)

    def test_create_body_must_parse(self):
        with pytest.raises(ParseError):
            parse_statement("CREATE MATERIALIZED VIEW w AS SELECT")


class TestViewFingerprint:
    def test_table_name_free(self):
        bound = bind_cohort_query(parse_cohort_query(QUERY),
                                  make_game_schema())
        assert (view_fingerprint(replace(bound, table="A"))
                == view_fingerprint(replace(bound, table="B")))

    def test_distinguishes_queries(self):
        schema = make_game_schema()
        a = bind_cohort_query(parse_cohort_query(QUERY), schema)
        b = bind_cohort_query(
            parse_cohort_query(QUERY.replace("country", "role")), schema)
        assert view_fingerprint(a) != view_fingerprint(b)


# ---------------------------------------------------------------------------
# Randomized invariants: per-shard partial merge == whole-table run
# ---------------------------------------------------------------------------


class TestPartialMergeInvariant:
    @pytest.mark.parametrize("func", sorted(AGG_EXPRS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_view_serve_matches_whole_table(self, tmp_path, seed, func):
        """Shard + chunk boundaries must be invisible: serving a view
        from per-shard partials equals executing on one table holding
        all the data, for every aggregate."""
        table = _random_table(seed)
        text = (f'SELECT role, COHORTSIZE, AGE, {AGG_EXPRS[func]} '
                f'FROM G BIRTH FROM action = "launch" COHORT BY role')
        sharded, _ = _shard_engine(tmp_path, table)
        whole = CohanaEngine()
        whole.create_table("G", table)
        sharded.create_view("v", text)
        assert sharded.query_view("v").rows == whole.query(text).rows

    @pytest.mark.parametrize("seed", [4, 5])
    def test_fold_partials_directly(self, tmp_path, seed):
        """The pipeline-level contract behind views: folding
        shard_value_partial outputs through MergeState reproduces the
        sharded engine run bit for bit."""
        table = _random_table(seed)
        engine, _ = _shard_engine(tmp_path, table)
        text = (f'SELECT role, COHORTSIZE, AGE, {AGG_EXPRS["AVG"]}, '
                f'{AGG_EXPRS["USERCOUNT"]} FROM G '
                f'BIRTH FROM action = "shop" COHORT BY role')
        query = engine.parse(text)
        stable = engine.table("G")
        state = MergeState(query)
        stats = ExecStats()
        for shard in stable.shards:
            state.absorb(shard_value_partial(shard, query), stats)
        rows = build_rows(stable, state, decoded_labels=True)
        assert rows == engine.query(query).rows

    def test_partials_json_roundtrip(self, tmp_path):
        """Encoding a partial to JSON and back must be lossless,
        including AVG's (sum, count) running state."""
        table = _random_table(6)
        engine, _ = _shard_engine(tmp_path, table)
        query = engine.parse(
            'SELECT role, COHORTSIZE, AGE, Avg(gold), Count(*) FROM G '
            'BIRTH FROM action = "launch" COHORT BY role')
        shard = engine.table("G").shards[0]
        partial = shard_value_partial(shard, query)
        funcs = [agg.func for agg in query.aggregates]
        wire = json.loads(json.dumps(encode_partial(partial)))
        restored = decode_partial(wire, funcs)
        _assert_same_partial(restored, partial)


def _assert_same_partial(got, want):
    assert got.labels == want.labels
    for name in ("sizes", "bucket_label", "bucket_age"):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name))
    assert len(got.states) == len(want.states)
    for got_state, want_state in zip(got.states, want.states):
        if isinstance(want_state, tuple):
            assert isinstance(got_state, tuple)
            pairs = list(zip(got_state, want_state))
        else:
            pairs = [(got_state, want_state)]
        for g, w in pairs:
            assert g.dtype == w.dtype
            assert g.tolist() == w.tolist()


class TestPartialCodec:
    """The v3 partial files: arrays as JSON lists, plus a checksum over
    the payload and its key. Anything that is not a well-formed v3
    partial is a miss (rescanned and rewritten) or a StorageError,
    never a wrong answer."""

    FUNCS = ["SUM", "AVG"]

    def _partial(self):
        return ChunkPartial(
            labels=[("Peru", 3), ("China", 4)],
            sizes=np.array([2, 5]),
            bucket_label=np.array([0, 1, 1]),
            bucket_age=np.array([1, 1, 2]),
            states=[np.array([2 ** 70, 1, -3], dtype=object),
                    (np.array([0.5, 1.25, -0.0]), np.array([1, 2, 3]))],
            rows_scanned=9, users_seen=7, users_qualified=7,
            tuples_aggregated=6)

    def test_round_trip_keeps_dtypes(self):
        partial = self._partial()
        wire = json.loads(json.dumps(encode_partial(partial)))
        assert wire["version"] == PARTIAL_VERSION == 3
        _assert_same_partial(decode_partial(wire, self.FUNCS), partial)

    @pytest.mark.parametrize("damage", [
        lambda w: w["sizes"].pop(),
        lambda w: w["bucket_age"].append(4),
        lambda w: w["bucket_label"].__setitem__(0, 2),
        lambda w: w["states"][0].pop(),
        lambda w: w["states"][1][1].append(1),
        lambda w: w["states"].pop(),
        lambda w: w["states"][1].pop(),
        lambda w: w["states"][0].__setitem__(0, "1"),
        lambda w: w["labels"].__setitem__(0, "Peru"),
        lambda w: w.__setitem__("version", 1),
    ])
    def test_mismatched_arrays_are_a_storage_error(self, damage):
        wire = json.loads(json.dumps(encode_partial(self._partial())))
        damage(wire)
        with pytest.raises(StorageError):
            decode_partial(wire, self.FUNCS)

    def _view_files(self, tmp_path):
        engine, sdir = _shard_engine(tmp_path, _random_table(12))
        engine.execute_statement(DDL)
        files = sorted((sdir / "VIEWS" / "partials").rglob("*.json"))
        assert len(files) == 3
        return engine, files

    def test_v1_partial_is_a_miss_and_is_rewritten(self, tmp_path):
        engine, files = self._view_files(tmp_path)
        # The v1 layout: dicts of label tuples, one slot list per bucket.
        files[0].write_text(json.dumps({
            "format": "cohana-view-partial", "version": 1,
            "n_aggregates": 1, "rows_scanned": 1, "users_seen": 1,
            "users_qualified": 1, "tuples_aggregated": 1,
            "cohort_sizes": [[["Peru"], 1000]],
            "buckets": [[["Peru"], 1, [10 ** 6]]]}))
        engine.partials.clear()  # serve from the files, not memory
        result, stats = engine.serve_view("weekly")
        assert stats.shards_scanned == 1
        assert result.rows == engine.query(QUERY).rows
        assert json.loads(files[0].read_text())["version"] == 3

    @pytest.mark.parametrize("damage", ["truncate", "lengths"])
    def test_damaged_partial_is_a_miss(self, tmp_path, damage):
        engine, files = self._view_files(tmp_path)
        text = files[1].read_text()
        if damage == "truncate":
            files[1].write_text(text[:len(text) // 2])
        else:
            wire = json.loads(text)
            wire["bucket_age"] = wire["bucket_age"][:-1]
            files[1].write_text(json.dumps(wire))
        engine.partials.clear()  # serve from the files, not memory
        result, stats = engine.serve_view("weekly")
        assert stats.shards_scanned == 1
        assert result.rows == engine.query(QUERY).rows
        assert json.loads(files[1].read_text()) == json.loads(text)


FUZZ_QUERY = ('SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent, '
              'Avg(gold) AS mean, UserCount() FROM G '
              'BIRTH FROM action = "launch" COHORT BY country')


def _json_paths(value, keep, path=()):
    """Paths of the values inside a decoded JSON document for which
    ``keep`` holds, containers before their items."""
    found = [path] if keep(value) else []
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return found
    return found + [p for k, v in items
                    for p in _json_paths(v, keep, path + (k,))]


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _mutate(kind, a, b, data, other):
    """``data`` (a partial file's bytes) damaged one way; ``other`` is
    another shard's partial file."""
    if kind == "flip":
        out = bytearray(data)
        out[a % len(out)] ^= b
        return bytes(out)
    if kind == "truncate":
        return data[:a % len(data)]
    if kind == "copy":
        return other
    payload = json.loads(data)
    if kind == "number":
        path = _json_paths(payload, _is_number)[a % len(
            _json_paths(payload, _is_number))]
        _at(payload, path[:-1])[path[-1]] += b
    elif kind == "delete":
        keys = sorted(payload)
        del payload[keys[a % len(keys)]]
    else:  # "swap" two items of one list
        paths = _json_paths(
            payload, lambda v: isinstance(v, list) and len(v) > 1)
        items = _at(payload, paths[a % len(paths)])
        i, j = a % len(items), b % len(items)
        items[i], items[j] = items[j], items[i]
    return json.dumps(payload, indent=2).encode()


class TestPartialFileFuzz:
    """Damaged partial files (byte flips, truncation, a changed number,
    a deleted key, a swapped list, another shard's file) are a miss or
    the same partial, and a view served from them is the direct
    query's answer."""

    @pytest.fixture(scope="class")
    def env(self, tmp_path_factory):
        engine, sdir = _shard_engine(tmp_path_factory.mktemp("fuzz"),
                                     _random_table(21, n_users=30))
        engine.execute_statement(
            "CREATE MATERIALIZED VIEW fuzzed AS " + FUZZ_QUERY)
        view = engine.view("fuzzed")
        store = DiskViewStore(sdir / "VIEWS")
        funcs = [agg.func for agg in view.query.aggregates]
        files = sorted((sdir / "VIEWS" / "partials").rglob("*.json"))
        originals = [path.read_bytes() for path in files]
        wants = [store.get_partial(view.fingerprint, path.stem, funcs)
                 for path in files]
        assert all(want is not None for want in wants)
        return dict(engine=engine, store=store, fp=view.fingerprint,
                    funcs=funcs, files=files, originals=originals,
                    wants=wants, direct=engine.query(FUZZ_QUERY).rows)

    def _check(self, env, victim, damaged):
        path = env["files"][victim]
        try:
            path.write_bytes(damaged)
            got = env["store"].get_partial(env["fp"], path.stem,
                                           env["funcs"])
            if got is not None:
                _assert_same_partial(got, env["wants"][victim])
            env["engine"].partials.clear()
            result, stats = env["engine"].serve_view("fuzzed")
            assert stats.shards_scanned == (got is None)
            assert result.rows == env["direct"]
        finally:
            path.write_bytes(env["originals"][victim])

    def test_a_changed_state_is_a_miss(self, env):
        payload = json.loads(env["originals"][0])
        payload["states"][0][0] += 1
        self._check(env, 0, json.dumps(payload, indent=2).encode())
        assert env["store"].get_partial(
            env["fp"], env["files"][0].stem, env["funcs"]) is not None

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["flip", "truncate", "number", "delete",
                                 "swap", "copy"]),
           victim=st.integers(0, 2), a=st.integers(0, 10 ** 6),
           b=st.integers(1, 255))
    def test_damage_is_a_miss_never_a_wrong_answer(self, env, kind,
                                                   victim, a, b):
        other = env["originals"][(victim + 1) % len(env["originals"])]
        self._check(env, victim,
                    _mutate(kind, a, b, env["originals"][victim], other))


class TestChunkInvariantRegression:
    def test_no_user_spans_a_chunk(self):
        """The writer invariant the whole partial algebra rests on:
        chunks close at user boundaries, so each user's global id
        appears in exactly one chunk even when a user's run is larger
        than the chunk target."""
        table = _random_table(7, n_users=40)
        compressed = compress(table, target_chunk_rows=4)
        assert compressed.n_chunks > 1
        seen = set()
        for chunk in compressed.chunks:
            ids = set(chunk.users.arrays()[0].tolist())
            assert seen.isdisjoint(ids), "user split across chunks"
            seen |= ids


# ---------------------------------------------------------------------------
# Decode memoization on storage objects (satellite 1)
# ---------------------------------------------------------------------------


class TestDecodeMemoization:
    def test_rle_arrays_cached(self):
        chunk = compress(make_table1(), target_chunk_rows=4).chunks[0]
        first = chunk.users.arrays()
        again = chunk.users.arrays()
        assert all(a is b for a, b in zip(first, again))

    def test_dict_global_ids_cached(self):
        chunk = compress(make_table1(), target_chunk_rows=4).chunks[0]
        col = chunk.columns["action"]
        assert col.global_ids() is col.global_ids()

    def test_cached_decode_is_correct(self, tmp_path):
        """Memoization must not change results across repeated runs of
        the same engine (second run reuses every cached array)."""
        engine = CohanaEngine()
        engine.create_table("G", make_table1())
        first = engine.query(QUERY)
        assert engine.query(QUERY).rows == first.rows


# ---------------------------------------------------------------------------
# Engine lifecycle: create / serve / append / reload / drop
# ---------------------------------------------------------------------------


class TestEngineViews:
    def test_create_serve_parity_and_persistence(self, tmp_path):
        engine, sdir = _shard_engine(tmp_path, _random_table(8))
        view = engine.execute_statement(DDL)
        assert view.name == "weekly"
        assert engine.views() == ["weekly"]
        result, stats = engine.serve_view("weekly")
        assert stats.shards_scanned == 0  # create refreshed already
        assert result.rows == engine.query(QUERY).rows
        assert (sdir / "VIEWS" / "weekly.view.json").is_file()
        partials = list((sdir / "VIEWS" / "partials").rglob("*.json"))
        assert len(partials) == stats.shards_total

    def test_append_refreshes_only_new_shard(self, tmp_path):
        table = _random_table(9, n_users=30)
        batches = _user_batches(table, 3)
        sdir = tmp_path / "G"
        for batch in batches[:2]:
            append_shard(sdir, batch, target_chunk_rows=16)
        engine = CohanaEngine()
        engine.load_table("G", sdir)
        engine.execute_statement(DDL)

        append_shard(sdir, batches[2], target_chunk_rows=16)
        engine.refresh_table("G", refresh_views=False)
        stats = engine.refresh_view("weekly")
        assert stats.shards_total == 3
        assert stats.shards_scanned == 1
        result, serve_stats = engine.serve_view("weekly")
        assert serve_stats.shards_scanned == 0
        assert result.rows == engine.query(QUERY).rows

    def test_refresh_table_refreshes_views_by_default(self, tmp_path):
        table = _random_table(10, n_users=30)
        batches = _user_batches(table, 2)
        sdir = tmp_path / "G"
        append_shard(sdir, batches[0], target_chunk_rows=16)
        engine = CohanaEngine()
        engine.load_table("G", sdir)
        engine.execute_statement(DDL)
        append_shard(sdir, batches[1], target_chunk_rows=16)
        engine.refresh_table("G")
        _, stats = engine.serve_view("weekly")
        assert stats.shards_scanned == 0  # refresh_table did the scan

    def test_byte_identical_reload_keeps_partials_warm(self, tmp_path):
        """The satellite bugfix pin: partials are keyed by shard
        content digest, so reloading unchanged bytes — same process or
        a fresh one — must not recompute anything."""
        engine, sdir = _shard_engine(tmp_path, _random_table(11))
        engine.execute_statement(DDL)
        engine.refresh_table("G")  # same bytes, new snapshot
        _, stats = engine.serve_view("weekly")
        assert stats.shards_scanned == 0

        fresh = CohanaEngine()
        fresh.load_table("G", sdir)  # restart: definitions re-attach
        assert fresh.views() == ["weekly"]
        result, stats = fresh.serve_view("weekly")
        assert stats.shards_scanned == 0
        assert result.rows == engine.query(QUERY).rows

    def test_corrupt_partial_degrades_to_recompute(self, tmp_path):
        engine, sdir = _shard_engine(tmp_path, _random_table(12))
        engine.execute_statement(DDL)
        direct = engine.query(QUERY)
        victim = next((sdir / "VIEWS" / "partials").rglob("*.json"))
        victim.write_text("{not json", encoding="utf-8")
        engine.partials.clear()  # serve from the files, not memory
        result, stats = engine.serve_view("weekly")
        assert stats.shards_scanned == 1  # only the damaged shard
        assert result.rows == direct.rows

    def test_view_and_direct_query_share_partials(self, tmp_path):
        batches = _user_batches(_random_table(16, n_users=32), 4)
        sdir = tmp_path / "G"
        for batch in batches[:3]:
            append_shard(sdir, batch, target_chunk_rows=16)
        engine = CohanaEngine()
        engine.load_table("G", sdir)
        engine.execute_statement(DDL)
        append_shard(sdir, batches[3], target_chunk_rows=16)
        engine.refresh_table("G", refresh_views=False)
        assert engine.refresh_view("weekly").shards_scanned == 1
        assert len(list((sdir / "VIEWS" / "partials").rglob("*.json"))) == 4
        result, stats = engine.query_with_stats(QUERY)
        assert (stats.shards_scanned, stats.shards_total) == (0, 4)
        fresh = CohanaEngine()
        fresh.load_table("G", sdir)
        assert result.rows == fresh.query(QUERY).rows

    def test_a_cold_cache_serves_from_the_files(self, tmp_path):
        engine, _sdir = _shard_engine(tmp_path, _random_table(18))
        engine.execute_statement(DDL)
        direct = engine.query(QUERY)
        engine.partials.clear()
        result, stats = engine.serve_view("weekly")
        assert (stats.shards_scanned, stats.shards_total) == (0, 3)
        assert result.rows == direct.rows
        # The file hits filled memory: the next direct read scans nothing.
        assert engine.query_with_stats(QUERY)[1].shards_scanned == 0

    def test_a_view_after_its_direct_query_persists_every_partial(
            self, tmp_path):
        engine, sdir = _shard_engine(tmp_path, _random_table(19))
        direct = engine.query(QUERY)
        engine.execute_statement(DDL)  # every segment a memory hit
        files = list((sdir / "VIEWS" / "partials").rglob("*.json"))
        assert len(files) == 3
        fresh = CohanaEngine()
        fresh.load_table("G", sdir)
        result, stats = fresh.serve_view("weekly")
        assert stats.shards_scanned == 0
        assert result.rows == direct.rows

    def test_warm_serves_list_the_partial_directory_once(
            self, tmp_path, monkeypatch):
        """The file upkeep runs once per token and segment set: a
        hundred warm serves over eight shards list the view's partial
        directory at most once."""
        engine, _sdir = _shard_engine(tmp_path, _random_table(21),
                                      n_batches=8)
        engine.execute_statement(DDL)
        listdir = os.listdir
        listed = []

        def counting(path):
            if "partials" in str(path):
                listed.append(path)
            return listdir(path)

        monkeypatch.setattr(os, "listdir", counting)
        for _ in range(100):
            _, stats = engine.serve_view("weekly")
        assert (stats.shards_scanned, stats.shards_total) == (0, 8)
        assert len(listed) <= 1

    def test_a_view_recreated_at_the_same_token_files_again(self,
                                                           tmp_path):
        """Dropping a view deletes its files; re-creating it over the
        same registration, every segment a memory hit, writes a file
        for each live segment again."""
        engine, sdir = _shard_engine(tmp_path, _random_table(22))
        engine.execute_statement(DDL)
        engine.serve_view("weekly")
        assert engine.drop_view("weekly")
        assert not (sdir / "VIEWS").exists()
        engine.execute_statement(DDL)
        files = list((sdir / "VIEWS" / "partials").rglob("*.json"))
        assert len(files) == 3
        fresh = CohanaEngine()
        fresh.load_table("G", sdir)
        assert fresh.serve_view("weekly")[1].shards_scanned == 0

    def test_a_partial_copied_under_another_shard_is_a_miss(self,
                                                            tmp_path):
        engine, sdir = _shard_engine(tmp_path, _random_table(20))
        engine.execute_statement(DDL)
        direct = engine.query(QUERY)
        first, second = sorted(
            (sdir / "VIEWS" / "partials").rglob("*.json"))[:2]
        second.write_bytes(first.read_bytes())
        engine.partials.clear()
        result, stats = engine.serve_view("weekly")
        assert stats.shards_scanned == 1
        assert result.rows == direct.rows

    def test_drop_view_removes_files(self, tmp_path):
        engine, sdir = _shard_engine(tmp_path, _random_table(13))
        engine.execute_statement(DDL)
        assert engine.drop_view("weekly")
        assert engine.views() == []
        assert not (sdir / "VIEWS").exists()

    def test_drop_table_drops_views_and_files(self, tmp_path):
        engine, sdir = _shard_engine(tmp_path, _random_table(14))
        engine.execute_statement(DDL)
        engine.drop_table("G")
        assert engine.views() == []
        assert not (sdir / "VIEWS").exists()
        with pytest.raises(CatalogError):
            engine.view("weekly")

    def test_create_duplicate_requires_or_replace(self, tmp_path):
        engine, _ = _shard_engine(tmp_path, _random_table(15))
        engine.execute_statement(DDL)
        with pytest.raises(CatalogError):
            engine.execute_statement(DDL)
        other = ("CREATE OR REPLACE MATERIALIZED VIEW weekly AS "
                 + QUERY.replace("country", "role"))
        view = engine.execute_statement(other)
        assert view.query.cohort_by == ("role",) \
            or list(view.query.cohort_by) == ["role"]
        assert engine.views() == ["weekly"]

    def test_or_replace_drops_stale_partials(self, tmp_path):
        engine, sdir = _shard_engine(tmp_path, _random_table(16))
        engine.execute_statement(DDL)
        old_fp = engine.view("weekly").fingerprint
        engine.execute_statement(
            "CREATE OR REPLACE MATERIALIZED VIEW weekly AS "
            + QUERY.replace("country", "role"))
        new_fp = engine.view("weekly").fingerprint
        assert new_fp != old_fp
        store = DiskViewStore(sdir / "VIEWS")
        assert store.partial_digests(old_fp) == set()
        assert store.partial_digests(new_fp)

    def test_drop_if_exists(self, tmp_path):
        engine, _ = _shard_engine(tmp_path, _random_table(17))
        assert engine.execute_statement(
            "DROP MATERIALIZED VIEW IF EXISTS nope") is False
        with pytest.raises(CatalogError):
            engine.execute_statement("DROP MATERIALIZED VIEW nope")

    def test_views_over_in_memory_tables(self):
        engine = CohanaEngine()
        engine.create_table("G", make_table1())
        engine.create_view("v", QUERY)
        assert engine.query_view("v").rows == engine.query(QUERY).rows

    @pytest.mark.parametrize("layout", ["memory", "file"])
    def test_views_without_a_directory_use_the_engine_cache(
            self, tmp_path, layout):
        """A view of an in-memory table or of a single file keeps its
        partials in ``engine.partials``, keyed like a direct read's,
        and persists nothing; only a table directory persists a view."""
        engine = CohanaEngine()
        table = _random_table(41)
        if layout == "memory":
            engine.create_table("G", table, target_chunk_rows=16)
        else:
            path = tmp_path / "g.cohana"
            save(compress(table, target_chunk_rows=16), path)
            engine.load_table("G", path)
        engine.execute_statement(DDL)
        direct = engine.query(QUERY).rows
        assert engine.serve_view("weekly")[0].rows == direct
        hits = engine.partials.counters.hits
        result, stats = engine.serve_view("weekly")
        assert result.rows == direct
        assert stats.chunks_scanned == 0
        assert engine.partials.counters.hits == hits + 1
        status = engine.view_status("weekly")
        assert status["persisted"] is False
        assert status["shards_cached"] == status["shards_total"] == 1
        assert not list(tmp_path.rglob("VIEWS"))
        engine.partials.clear()
        assert engine.view_status("weekly")["shards_cached"] == 0
        assert engine.serve_view("weekly")[1].chunks_scanned > 0
        engine.create_table("G", _random_table(42), replace=True)
        replaced = engine.query(QUERY).rows
        assert replaced != direct
        assert engine.serve_view("weekly")[0].rows == replaced
        assert engine.drop_view("weekly")
        sharded, _ = _shard_engine(tmp_path, table)
        sharded.execute_statement(DDL)
        assert sharded.view_status("weekly")["persisted"] is True

    def test_reregistration_mid_refresh_never_mislabels_a_partial(
            self, monkeypatch):
        """An in-memory table re-registered while a refresh looks up its
        shard units must not get the old table's partial stored under
        the new registration's token: every later serve would return
        the old rows."""
        engine = CohanaEngine()
        engine.create_table("G", _random_table(31))
        engine.create_view("v", QUERY)
        old_rows = engine.query(QUERY).rows
        original = engine.table
        racers = []

        def table(name):
            found = original(name)
            caller = sys._getframe(1).f_code.co_name
            if not racers and caller in ("_shard_units", "snapshot"):
                racer = threading.Thread(
                    target=engine.create_table,
                    args=("G", _random_table(32)),
                    kwargs={"replace": True})
                racers.append(racer)
                racer.start()
                # A reader holding the catalog lock keeps the racer
                # waiting; the timeout lets the reader go on.
                racer.join(timeout=0.5)
            return found

        monkeypatch.setattr(engine, "table", table)
        engine.refresh_view("v")
        monkeypatch.undo()
        racers[0].join(timeout=10)
        assert not racers[0].is_alive()
        direct = engine.query(QUERY).rows
        assert direct != old_rows
        assert engine.serve_view("v")[0].rows == direct

    def test_view_rejects_unknown_table(self):
        engine = CohanaEngine()
        with pytest.raises(CatalogError):
            engine.create_view("v", QUERY)

    def test_invalid_view_name(self, tmp_path):
        engine, _ = _shard_engine(tmp_path, _random_table(18))
        with pytest.raises(CatalogError):
            engine.create_view("not a name", QUERY)

    def test_view_status(self, tmp_path):
        engine, _ = _shard_engine(tmp_path, _random_table(19))
        engine.execute_statement(DDL)
        status = engine.view_status("weekly")
        assert status["table"] == "G"
        assert status["persisted"] is True
        assert status["shards_cached"] == status["shards_total"]


# ---------------------------------------------------------------------------
# Disk store: durability of the write-temp + replace seam
# ---------------------------------------------------------------------------


class TestWriteAtomicDurability:
    def test_fsync_precedes_replace(self, tmp_path, monkeypatch):
        """Regression: partial files must be fsynced before the rename.

        Without the fsync a crash shortly after ``os.replace`` can leave
        the *final* path pointing at zero-length or partial bytes on
        some filesystems — surfaced by repolint's fsync-before-replace
        rule and pinned here.
        """
        import repro.views.store as store_mod

        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            store_mod.os, "fsync",
            lambda fd: (events.append("fsync"), real_fsync(fd))[1])
        monkeypatch.setattr(
            store_mod.os, "replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1])

        store = DiskViewStore(tmp_path / "VIEWS")
        store._write_atomic(tmp_path / "VIEWS" / "x.json", {"k": 1})

        assert events == ["fsync", "replace"]
        data = json.loads((tmp_path / "VIEWS" / "x.json").read_text())
        assert data == {"k": 1}
        assert not (tmp_path / "VIEWS" / "x.json.tmp").exists()


# ---------------------------------------------------------------------------
# Service: dispositions and counters
# ---------------------------------------------------------------------------


class TestServiceViews:
    def test_dispositions(self, tmp_path):
        table = _random_table(20, n_users=30)
        batches = _user_batches(table, 2)
        sdir = tmp_path / "G"
        append_shard(sdir, batches[0], target_chunk_rows=16)
        engine = CohanaEngine()
        engine.load_table("G", sdir)
        engine.execute_statement(DDL)
        service = QueryService(engine)

        _, stats = service.serve_view("weekly")
        assert stats.cache_disposition == "miss"  # partials were warm
        _, stats = service.serve_view("weekly")
        assert stats.cache_disposition == "hit"
        _, stats = service.serve_view("weekly", use_cache=False)
        assert stats.cache_disposition == "bypass"

        append_shard(sdir, batches[1], target_chunk_rows=16)
        engine.refresh_table("G", refresh_views=False)
        result, stats = service.serve_view("weekly")
        assert stats.cache_disposition == "refresh"
        assert stats.shards_scanned == 1
        assert result.rows == engine.query(QUERY).rows

        counters = service.counters.as_dict()
        assert counters["refreshes"] == 1
        assert counters["hits"] == 1
        assert counters["bypasses"] == 1

    def test_view_and_direct_query_share_cache(self, tmp_path):
        engine, _ = _shard_engine(tmp_path, _random_table(21))
        engine.execute_statement(DDL)
        service = QueryService(engine)
        service.query(engine.parse(QUERY))  # warms the result cache
        _, stats = service.serve_view("weekly")
        assert stats.cache_disposition == "hit"


# ---------------------------------------------------------------------------
# CLI: the view subcommand and the serve frontend DDL path
# ---------------------------------------------------------------------------


class TestCliViews:
    def _setup(self, tmp_path):
        sdir = tmp_path / "G"
        for batch in _user_batches(_random_table(22, n_users=30), 2):
            append_shard(sdir, batch, target_chunk_rows=16)
        return sdir

    def test_create_list_serve_refresh_drop(self, tmp_path, capsys):
        sdir = self._setup(tmp_path)
        assert main(["view", "create", str(sdir), DDL]) == 0
        assert "created view weekly" in capsys.readouterr().out

        assert main(["view", "list", str(sdir)]) == 0
        assert "weekly: table=G" in capsys.readouterr().out

        assert main(["view", "refresh", str(sdir)]) == 0
        assert "scanned 0 of 2 shards" in capsys.readouterr().out

        assert main(["view", "serve", str(sdir), "weekly",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "cohort_size" in out
        assert "[miss shards 0/2" in out

        assert main(["view", "drop", str(sdir), "weekly"]) == 0
        capsys.readouterr()
        assert main(["view", "list", str(sdir)]) == 1

    def test_create_over_a_single_file_is_refused(self, tmp_path,
                                                  capsys):
        path = tmp_path / "g.cohana"
        save(compress(_random_table(22, n_users=30),
                      target_chunk_rows=16), path)
        assert main(["view", "create", str(path), DDL]) == 1
        captured = capsys.readouterr()
        assert "created view" not in captured.out
        assert "views persist only next to" in captured.err
        assert "sharded table directory" in captured.err
        assert not (tmp_path / "VIEWS").exists()
        assert list(tmp_path.iterdir()) == [path]

    def test_serve_frontend_ddl_and_meta(self, tmp_path, capsys,
                                         monkeypatch):
        import io
        sdir = self._setup(tmp_path)
        script = "\n".join([
            DDL + ";",
            QUERY + ";",
            ".views",
            ".view weekly",
            "DROP MATERIALIZED VIEW weekly;",
            ".quit",
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", str(sdir)]) == 0
        out = capsys.readouterr().out
        assert "view weekly: 2/2 shard partials cached" in out
        assert "weekly: table=G shards=2/2" in out
        assert "dropped view weekly" in out

    def test_serve_frontend_ddl_error_does_not_kill_session(
            self, tmp_path, capsys, monkeypatch):
        import io
        sdir = self._setup(tmp_path)
        script = ("DROP MATERIALIZED VIEW missing;\n"
                  + QUERY + ";\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", str(sdir)]) == 0
        captured = capsys.readouterr()
        assert "unknown view" in captured.err
        assert "cohort_size" in captured.out
