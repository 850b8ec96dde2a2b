"""Sharded multi-file tables: manifest, append path, execution, cache.

Covers the PR-5 tentpole: manifest round-trip and validation, the
append-only ingestion path (new shard + atomic manifest replace,
existing bytes untouched, user-disjointness enforced), lazy sharded
loading, digest-exact query parity against a single-file table across
kernels / backends / scan modes, per-shard pruning stats, composed
version tokens, service invalidation on append (with warm caches on
byte-identical reloads), per-segment planning, and the ``ingest`` CLI
command.
"""

import gc
import hashlib
import json
import os
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cohana import CohanaEngine
from repro.cohana import pipeline, planner
from repro.cohana.pipeline import shard_value_partial
from repro.cohort import evaluate as oracle_evaluate
from repro.datagen import GameConfig, generate
from repro.errors import CatalogError, StorageError
from repro.schema import ActivitySchema, LogicalType
from repro.service import QueryService
from repro.storage import (
    MANIFEST_NAME,
    CompressedActivityTable,
    ShardedActivityTable,
    VERIFIED_SHARDS,
    append_shard,
    compact,
    compose_digest,
    compress,
    gc_shards,
    is_sharded_path,
    load,
    logical_digest_of,
    pinned_shard_files,
    read_manifest,
    save,
)
from repro.storage.format import deserialize, serialize
from repro.table import ActivityTable
from repro.table.activity import ROW_BLOCK, _as_python

from helpers import fully_pruned_shards, make_game_schema, make_table1

QUERY = ('SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent FROM G '
         'BIRTH FROM action = "launch" COHORT BY country')
ROLE_QUERY = ('SELECT role, COHORTSIZE, AGE, UserCount() FROM G '
              'BIRTH FROM action = "shop" COHORT BY role')


def _user_batches(table, n):
    """Contiguous user-disjoint slices of a sorted activity table."""
    table = table.sorted_by_primary_key()
    blocks = list(table.user_blocks())
    per = max(1, -(-len(blocks) // n))
    return [table.slice(blocks[i][1], blocks[min(i + per, len(blocks))
                                             - 1][2])
            for i in range(0, len(blocks), per)]


def _digest(result):
    return hashlib.sha256(repr(result.rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def parts():
    """Five user-disjoint batches of one generated dataset: four form
    the table under test, the fifth is the 'new data' of append tests."""
    full = generate(GameConfig(n_users=30, seed=3))
    return _user_batches(full, 5)


@pytest.fixture
def game(parts):
    table = parts[0]
    for batch in parts[1:4]:
        table = table.concat(batch)
    return table


@pytest.fixture
def shard_dir(tmp_path, parts):
    d = tmp_path / "G"
    for batch in parts[:4]:
        append_shard(d, batch, target_chunk_rows=64)
    return d


@pytest.fixture
def single_path(tmp_path, game):
    path = tmp_path / "G.cohana"
    save(compress(game.sorted_by_primary_key(), target_chunk_rows=64),
         path)
    return path


@pytest.fixture
def one_shard_dir(tmp_path, game):
    """The rows of ``single_path`` as a directory of one shard."""
    d = tmp_path / "G1"
    append_shard(d, game, target_chunk_rows=64)
    return d


def _scan_counters(stats):
    """Every ExecStats field but the ``shards_*`` pair."""
    return {name: value for name, value in asdict(stats).items()
            if not name.startswith("shards_")}


# -- manifest + append path ---------------------------------------------------


class TestManifestAndAppend:
    def test_first_append_creates_table(self, tmp_path):
        d = tmp_path / "t"
        entry = append_shard(d, make_table1(), target_chunk_rows=4)
        assert is_sharded_path(d)
        assert (d / entry["path"]).is_file()
        manifest = read_manifest(d)
        assert manifest["format"] == "cohana-sharded"
        assert [s["path"] for s in manifest["shards"]] == [entry["path"]]
        assert not (d / (MANIFEST_NAME + ".tmp")).exists()

    def test_append_never_rewrites_existing_bytes(self, tmp_path, game):
        d = tmp_path / "t"
        b1, b2 = _user_batches(game, 2)
        first = append_shard(d, b1, target_chunk_rows=64)
        before = (d / first["path"]).read_bytes()
        append_shard(d, b2, target_chunk_rows=64)
        assert (d / first["path"]).read_bytes() == before
        assert len(read_manifest(d)["shards"]) == 2

    def test_append_rejects_user_overlap(self, tmp_path, game):
        d = tmp_path / "t"
        b1, b2 = _user_batches(game, 2)
        append_shard(d, b1, target_chunk_rows=64)
        with pytest.raises(StorageError, match="split .* user"):
            append_shard(d, b1, target_chunk_rows=64)
        # the failed append must not have changed the table
        assert len(read_manifest(d)["shards"]) == 1

    def test_append_rejects_empty_batch(self, tmp_path, game):
        with pytest.raises(StorageError, match="empty"):
            append_shard(tmp_path / "t", game.slice(0, 0))

    def test_append_rejects_schema_mismatch(self, tmp_path, game):
        d = tmp_path / "t"
        append_shard(d, _user_batches(game, 2)[0], target_chunk_rows=64)
        with pytest.raises(StorageError, match="schema"):
            append_shard(d, make_table1(), target_chunk_rows=4)

    def test_manifest_validation(self, tmp_path, shard_dir):
        with pytest.raises(StorageError, match="missing"):
            read_manifest(tmp_path / "nope")
        manifest_path = shard_dir / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="format"):
            load(shard_dir)

    def test_missing_shard_file_fails(self, shard_dir):
        victim = read_manifest(shard_dir)["shards"][0]["path"]
        (shard_dir / victim).unlink()
        with pytest.raises(StorageError, match="missing"):
            load(shard_dir)

    def test_swapped_shard_fails_digest_check(self, shard_dir):
        shards = read_manifest(shard_dir)["shards"]
        a = (shard_dir / shards[0]["path"])
        b = (shard_dir / shards[1]["path"])
        a.write_bytes(b.read_bytes())
        with pytest.raises(StorageError, match="digest mismatch"):
            load(shard_dir)


def _users_table(names):
    """One launch row for each user in ``names``."""
    return ActivityTable.from_rows(make_game_schema(), [
        (name, "2013/05/01:1000", "launch", "dwarf", "Peru", 1)
        for name in names])


class TestAppendOverlapCheck:
    """An append opens only the shards whose manifest ``user_range``
    meets the batch's first and last user: counted, not timed."""

    @pytest.fixture
    def loads(self, monkeypatch):
        """Every shard file ``repro.storage.format.load`` opens."""
        from repro.storage import format as file_format
        opened = []
        real = file_format.load

        def load_counting(path):
            opened.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(file_format, "load", load_counting)
        return opened

    @staticmethod
    def _shards(d, n):
        """``n`` shards; shard ``i`` holds users ``u<i>a`` and
        ``u<i>c``, so ``u<i>b`` falls inside its range, in no shard."""
        for i in range(n):
            append_shard(d, _users_table([f"u{i:02d}a", f"u{i:02d}c"]),
                         target_chunk_rows=4)
        return [entry["path"] for entry in read_manifest(d)["shards"]]

    @staticmethod
    def _rewrite_manifest(d, edit):
        manifest = read_manifest(d)
        edit(manifest)
        (d / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))

    def test_entries_record_user_range(self, tmp_path):
        d = tmp_path / "t"
        self._shards(d, 2)
        assert [e["user_range"] for e in read_manifest(d)["shards"]] == [
            ["u00a", "u00c"], ["u01a", "u01c"]]
        result = compact(d)
        (entry,) = read_manifest(d)["shards"]
        assert entry["path"] == result.new_shard
        assert entry["user_range"] == ["u00a", "u01c"]

    def test_disjoint_append_opens_no_shard(self, tmp_path, loads):
        d = tmp_path / "t"
        self._shards(d, 32)
        del loads[:]
        append_shard(d, _users_table(["u99a", "u99b"]))
        assert loads == []
        assert len(read_manifest(d)["shards"]) == 33

    def test_straddling_append_opens_only_intersecting_shards(
            self, tmp_path, loads):
        d = tmp_path / "t"
        names = self._shards(d, 8)
        del loads[:]
        # [u02b, u05b] meets the ranges of shards 2, 3, 4 and 5 only.
        append_shard(d, _users_table(["u02b", "u05b"]))
        assert loads == names[2:6]
        assert len(load(d).shards) == 9

    def test_entries_without_user_range_are_all_opened(self, tmp_path,
                                                       loads):
        d = tmp_path / "t"
        names = self._shards(d, 4)

        def strip(manifest):
            for entry in manifest["shards"]:
                del entry["user_range"]
        self._rewrite_manifest(d, strip)
        del loads[:]
        entry = append_shard(d, _users_table(["u99a"]))
        assert loads == names
        assert entry["user_range"] == ["u99a", "u99a"]
        assert "user_range" not in read_manifest(d)["shards"][0]

    @pytest.mark.parametrize("stripped", [False, True])
    def test_real_overlap_is_still_refused(self, tmp_path, loads,
                                           stripped):
        d = tmp_path / "t"
        names = self._shards(d, 8)
        if stripped:
            self._rewrite_manifest(d, lambda m: [
                e.pop("user_range") for e in m["shards"]])
        before = (d / MANIFEST_NAME).read_bytes()
        del loads[:]
        with pytest.raises(StorageError, match="split 1 user.*u04a"):
            append_shard(d, _users_table(["u02b", "u04a"]))
        assert loads == (names if stripped else names[2:5])
        assert (d / MANIFEST_NAME).read_bytes() == before

    @pytest.mark.parametrize("users", [["u03c", "u03d"],
                                       ["u02x", "u03a"]])
    def test_overlap_at_a_range_bound_is_refused(self, tmp_path, users):
        d = tmp_path / "t"
        self._shards(d, 8)
        with pytest.raises(StorageError, match="split 1 user"):
            append_shard(d, _users_table(users))

    @pytest.mark.parametrize("victim", [0, 1])
    def test_a_missing_shard_fails_the_append(self, tmp_path, victim):
        d = tmp_path / "t"
        names = self._shards(d, 2)
        (d / names[victim]).unlink()
        with pytest.raises(StorageError, match="shard file missing"):
            append_shard(d, _users_table([f"u{victim:02d}b"]))

    def test_lying_user_range_fails_the_load(self, tmp_path):
        d = tmp_path / "t"
        self._shards(d, 3)
        self._rewrite_manifest(d, lambda m: m["shards"][1].__setitem__(
            "user_range", ["u01a", "u01b"]))
        with pytest.raises(StorageError, match="user-range mismatch"):
            load(d)

    @pytest.mark.parametrize("bad", [["u2", "u1"], ["u1"], [1, 2],
                                     "u1", None])
    def test_manifest_validates_user_range(self, tmp_path, bad):
        d = tmp_path / "t"
        self._shards(d, 1)
        self._rewrite_manifest(d, lambda m: m["shards"][0].__setitem__(
            "user_range", bad))
        with pytest.raises(StorageError, match="bad user_range"):
            read_manifest(d)


# -- the sharded table --------------------------------------------------------


class TestShardedTable:
    def test_load_and_shape(self, shard_dir, game):
        table = load(shard_dir)
        assert isinstance(table, ShardedActivityTable)
        assert table.is_sharded and table.n_shards == 4
        assert table.n_rows == len(game)
        assert table.n_users == len(game.distinct_users())
        assert table.n_chunks == sum(s.n_chunks for s in table.shards)

    def test_load_via_manifest_path(self, shard_dir):
        table = load(shard_dir / MANIFEST_NAME)
        assert table.is_sharded

    def test_shards_load_lazily(self, shard_dir):
        table = load(shard_dir)
        assert all(s.is_lazy for s in table.shards)
        assert all(s.chunks.loaded_count == 0 for s in table.shards)

    def test_roundtrip_decompress(self, shard_dir, game):
        assert load(shard_dir).decompress() == \
            game.sorted_by_primary_key()

    def test_composed_digest_tracks_shard_set(self, shard_dir, game):
        table = load(shard_dir)
        assert table.content_digest == compose_digest(
            table.shard_digests)
        assert load(shard_dir).content_digest == table.content_digest


# -- execution parity ---------------------------------------------------------


class TestShardedExecution:
    @pytest.fixture
    def engines(self, shard_dir, single_path):
        sharded, single = CohanaEngine(), CohanaEngine()
        sharded.load_table("G", shard_dir)
        single.load_table("G", single_path)
        return sharded, single

    @pytest.mark.parametrize("executor", ("vectorized", "iterator"))
    @pytest.mark.parametrize("scan_mode", ("decoded", "compressed"))
    def test_digest_parity_across_modes(self, engines, executor,
                                        scan_mode):
        sharded, single = engines
        for text in (QUERY, ROLE_QUERY):
            a = sharded.query(text, executor=executor,
                              scan_mode=scan_mode)
            b = single.query(text, executor=executor,
                             scan_mode=scan_mode)
            assert _digest(a) == _digest(b)

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_digest_parity_across_backends(self, engines, backend):
        sharded, single = engines
        a = sharded.query(QUERY, jobs=2, backend=backend)
        assert _digest(a) == _digest(single.query(QUERY))

    @pytest.mark.parametrize("executor", ("vectorized", "iterator"))
    @pytest.mark.parametrize("backend", ("serial", "threads",
                                         "processes"))
    @pytest.mark.parametrize("scan_mode", ("compressed", "decoded"))
    def test_one_shard_directory_is_the_single_file(
            self, one_shard_dir, single_path, executor, backend,
            scan_mode):
        """A single file is a one-segment table: the same rows behind
        a one-shard manifest give the same answer *and* the same chunk
        and row counters."""
        sharded, single = CohanaEngine(), CohanaEngine()
        sharded.load_table("G", one_shard_dir)
        single.load_table("G", single_path)
        kw = dict(executor=executor, backend=backend, jobs=2,
                  scan_mode=scan_mode)
        for text in (QUERY, ROLE_QUERY):
            a, a_stats = sharded.query_with_stats(text, **kw)
            b, b_stats = single.query_with_stats(text, **kw)
            assert a.rows == b.rows
            assert _scan_counters(a_stats) == _scan_counters(b_stats)
            assert (a_stats.shards_total, b_stats.shards_total) == (1, 0)

    def test_labels_decoded_and_plans_lowered_once_per_segment(
            self, shard_dir, single_path, monkeypatch):
        """A cohort label costs one dictionary lookup per segment it
        appears in (not one per chunk), and a plan is lowered once per
        segment that has a surviving task — on a directory, a single
        file and the view-refresh unit alike."""
        decoded, lowered = [], []
        value_of = CompressedActivityTable.value_of
        lower_plan = pipeline.lower_plan

        def counting_value_of(table, column, gid):
            decoded.append((id(table), column, gid))
            return value_of(table, column, gid)

        def counting_lower_plan(plan, kernel):
            lowered.append(plan)
            return lower_plan(plan, kernel)

        monkeypatch.setattr(CompressedActivityTable, "value_of",
                            counting_value_of)
        monkeypatch.setattr(pipeline, "lower_plan", counting_lower_plan)
        sharded, single = CohanaEngine(), CohanaEngine()
        sharded.load_table("G", shard_dir)
        single.load_table("G", single_path)
        shards = sharded.table("G").shards
        assert max(shard.n_chunks for shard in shards) > 1

        _, stats = sharded.query_with_stats(QUERY)
        assert len(lowered) == stats.shards_scanned == len(shards)
        assert decoded and len(decoded) == len(set(decoded))

        del decoded[:], lowered[:]
        single.query(QUERY)
        assert len(lowered) == 1
        assert decoded and len(decoded) == len(set(decoded))

        del decoded[:], lowered[:]
        shard_value_partial(shards[0], sharded.parse(QUERY))
        assert len(lowered) == 1
        assert decoded and len(decoded) == len(set(decoded))

    def test_append_then_query_parity(self, tmp_path, game):
        """Growing a table batch by batch answers exactly like the
        single file holding the same data, at every step."""
        d = tmp_path / "grow"
        seen = None
        for batch in _user_batches(game, 3):
            append_shard(d, batch, target_chunk_rows=64)
            seen = batch if seen is None else seen.concat(batch)
            sharded = CohanaEngine()
            sharded.load_table("G", d)
            single = CohanaEngine()
            single.create_table("G", seen, target_chunk_rows=64)
            assert _digest(sharded.query(QUERY)) == \
                _digest(single.query(QUERY))

    def test_labels_merge_in_value_space(self, tmp_path):
        """Shards have independent dictionaries, so equal cohort labels
        from different shards carry different global ids — the merge
        must happen on values, not ids."""
        t = make_table1()
        d = tmp_path / "t"
        # users 001 (Australia) / 002 (US) / 003 (China): every shard
        # gets a different country dictionary.
        for start, stop in ((0, 5), (5, 8), (8, 10)):
            append_shard(d, t.slice(start, stop), target_chunk_rows=4)
        sharded = CohanaEngine()
        sharded.load_table("G", d)
        single = CohanaEngine()
        single.create_table("G", t, target_chunk_rows=4)
        for executor in ("vectorized", "iterator"):
            # An empty partial cache: each kernel scans every shard.
            sharded.partials.clear()
            got, stats = sharded.query_with_stats(QUERY, executor=executor)
            assert stats.chunks_total == sharded.table("G").n_chunks
            assert got.rows == single.query(QUERY,
                                            executor=executor).rows

    def test_explain_resolves_on_sharded_table(self, engines):
        sharded, _ = engines
        text = sharded.explain(QUERY, jobs=2)
        assert "backend=processes" in text  # on-disk: workers by path


# -- pruning ------------------------------------------------------------------


class TestShardedPruning:
    def test_per_shard_pruning_stats(self, tmp_path):
        """A birth value confined to one shard prunes the other shards
        from their own metadata; the counters say so."""
        t = make_table1()
        d = tmp_path / "t"
        for start, stop in ((0, 5), (5, 8), (8, 10)):
            append_shard(d, t.slice(start, stop), target_chunk_rows=4)
        eng = CohanaEngine()
        eng.load_table("G", d)
        text = ('SELECT role, COHORTSIZE, AGE, UserCount() FROM G '
                'BIRTH FROM action = "launch" AND country = "China" '
                'COHORT BY role')
        result, stats = eng.query_with_stats(text,
                                             scan_mode="compressed")
        assert stats.shards_total == 3
        assert stats.shards_scanned == 1  # only the China shard
        assert stats.chunks_scanned == 1
        assert stats.chunks_pruned == stats.chunks_total - 1
        assert [row[0] for row in result.rows] == ["bandit"]

    def test_action_missing_from_shard_counts_as_pruned(self, tmp_path):
        """A shard whose dictionary lacks the birth action entirely is
        the shard-level action-dictionary miss; its chunks must land in
        chunks_pruned so the ExecStats invariant holds."""
        t = make_table1()
        d = tmp_path / "t"
        # user 003 never shops: the third shard has no "shop" action.
        for start, stop in ((0, 5), (5, 8), (8, 10)):
            append_shard(d, t.slice(start, stop), target_chunk_rows=4)
        eng = CohanaEngine()
        eng.load_table("G", d)
        text = ('SELECT country, COHORTSIZE, AGE, UserCount() FROM G '
                'BIRTH FROM action = "shop" COHORT BY country')
        _, stats = eng.query_with_stats(text)
        assert stats.shards_total == 3
        assert stats.shards_scanned == 2
        assert stats.chunks_pruned + stats.chunks_scanned \
            == stats.chunks_total
        assert stats.shards_total == stats.shards_scanned \
            + stats.shards_reused + fully_pruned_shards(
                eng.table("G").shards, eng.parse(text)) == 3
        _, warm = eng.query_with_stats(text)
        assert (warm.shards_scanned, warm.shards_reused) == (0, 3)

    @pytest.mark.parametrize("prune", (True, False))
    def test_unknown_birth_action_keeps_the_invariant(
            self, one_shard_dir, single_path, prune):
        """A birth action no dictionary holds leaves nothing to scan;
        every chunk lands in chunks_pruned — on a file and on a
        directory, with pruning on or off."""
        text = ('SELECT country, COHORTSIZE, AGE, UserCount() FROM G '
                'BIRTH FROM action = "nosuchaction" COHORT BY country')
        for path in (single_path, one_shard_dir):
            eng = CohanaEngine()
            eng.load_table("G", path)
            result, stats = eng.query_with_stats(text, prune=prune)
            assert result.rows == []
            assert stats.chunks_total > 1
            assert (stats.chunks_scanned, stats.chunks_pruned,
                    stats.chunks_pruned_zone) == (0, stats.chunks_total,
                                                  0)

    def test_pruning_is_result_neutral(self, shard_dir):
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        n_chunks = eng.table("G").n_chunks
        with_prune, stats = eng.query_with_stats(ROLE_QUERY)
        assert stats.chunks_total == n_chunks
        # An empty partial cache: the unpruned run scans every chunk.
        eng.partials.clear()
        without, stats = eng.query_with_stats(ROLE_QUERY, prune=False)
        assert stats.chunks_total == stats.chunks_scanned == n_chunks
        assert with_prune.rows == without.rows

    def test_partial_cache_refuses_a_shard_without_a_digest(self,
                                                             shard_dir):
        """Shard partials are filed by each shard's own digest; a shard
        without one is refused, not filed under a key it would share."""
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        eng.table("G").shards[-1].content_digest = None
        with pytest.raises(ValueError, match="content digest"):
            eng.query(ROLE_QUERY)
        assert len(eng.partials) == 0


# -- per-segment planning -----------------------------------------------------


class TestPerSegmentPlanning:
    """Every plan is made against one segment's own dictionaries, and
    only for a segment that is about to be scanned."""

    @pytest.fixture
    def planned(self, monkeypatch):
        """The table argument of every ``plan_query`` call, wherever
        the function was imported."""
        calls = []
        original = planner.plan_query

        def spy(query, table, *args, **kw):
            calls.append(table)
            return original(query, table, *args, **kw)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "plan_query", None) is original):
                monkeypatch.setattr(module, "plan_query", spy)
        return calls

    @staticmethod
    def _read(eng, planned):
        """One read; the number of plans it made, each checked to be
        one of the table's segments."""
        planned.clear()
        _, stats = eng.query_with_stats(QUERY)
        segments = pipeline.table_segments(eng.table("G"))
        assert all(any(t is s for s in segments) for t in planned)
        return len(planned), stats

    def test_segments_are_planned_when_scanned(self, shard_dir, parts,
                                               planned):
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        calls, stats = self._read(eng, planned)
        assert stats.shards_scanned == 4
        assert calls <= 1 + stats.shards_scanned
        # Every partial warm: only the plan handed to the scheduler.
        calls, stats = self._read(eng, planned)
        assert (calls, stats.shards_scanned) == (1, 0)
        # After an append: that plan, and the new shard's.
        append_shard(shard_dir, parts[4], target_chunk_rows=64)
        eng.refresh_table("G")
        calls, stats = self._read(eng, planned)
        assert stats.shards_scanned == 1
        assert calls <= 2

    def test_a_sharded_table_has_no_id_space(self, shard_dir):
        """Nothing can plan or decode against the directory as a whole:
        it has no dictionaries and no chunks of its own."""
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        with pytest.raises(AttributeError):
            planner.plan_query(eng.parse(QUERY), eng.table("G"))


# -- version tokens, service invalidation -------------------------------------


class TestShardedService:
    def test_append_invalidates_byte_identical_reload_does_not(
            self, shard_dir, parts):
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        service = QueryService(eng)
        _, stats = service.query_with_stats(QUERY)
        assert stats.cache_disposition == "miss"
        token = eng.version_token("G")
        assert token.startswith("sha256:")

        # Byte-identical reload: same composed digest, caches warm.
        eng.refresh_table("G")
        assert eng.version_token("G") == token
        _, stats = service.query_with_stats(QUERY)
        assert stats.cache_disposition == "hit"

        # Append: the composed digest moves, the cache invalidates.
        append_shard(shard_dir, parts[4], target_chunk_rows=64)
        eng.refresh_table("G")
        assert eng.version_token("G") != token
        _, stats = service.query_with_stats(QUERY)
        assert stats.cache_disposition == "invalidated"

    def test_stats_snapshot_reports_shard_caches(self, shard_dir):
        """The partial cache and the verification memo show in
        ``stats_snapshot()`` (so in REPL ``.stats`` and ``GET /stats``)
        in one shape: the counters plus entries and the bound."""
        VERIFIED_SHARDS.clear()
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        service = QueryService(eng)
        service.query(QUERY)
        snapshot = service.stats_snapshot()
        assert list(snapshot) == ["service", "results", "entries",
                                  "max_entries", "partials",
                                  "shard_verify"]
        verify, partials = snapshot["shard_verify"], snapshot["partials"]
        assert list(verify) == list(partials) == [
            "hits", "misses", "evictions", "invalidations", "entries",
            "max_entries"]
        # One partial per shard, each a miss on this first run.
        assert (partials["misses"], partials["entries"]) == (4, 4)
        assert (verify["entries"], verify["max_entries"]) == (4, 4096)

    def test_bypass_leaves_the_partial_cache_alone(self, shard_dir):
        """``use_cache=False`` neither reads nor files segment
        partials: the partial cache's counters and entries stay put,
        and the bypassed run scans every shard."""
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        service = QueryService(eng)
        service.query(QUERY)
        before = service.stats_snapshot()["partials"]
        _, stats = service.query_with_stats(QUERY, use_cache=False)
        assert stats.cache_disposition == "bypass"
        assert stats.shards_scanned == stats.shards_total == 4
        assert service.stats_snapshot()["partials"] == before

    def test_clear_empties_the_partial_cache(self, shard_dir):
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        service = QueryService(eng)
        service.query(QUERY)
        assert service.stats_snapshot()["partials"]["entries"] == 4
        service.clear()
        assert service.stats_snapshot()["partials"]["entries"] == 0
        _, stats = service.query_with_stats(QUERY)
        assert stats.cache_disposition == "miss"
        assert stats.shards_scanned == 4

    def test_refresh_requires_disk_backing(self):
        eng = CohanaEngine()
        eng.create_table("M", make_table1())
        with pytest.raises(CatalogError, match="not loaded from disk"):
            eng.refresh_table("M")


# -- the logical digest ---------------------------------------------------------


LOGICAL_SCHEMA = ActivitySchema.build(
    user="player", time="time", action="action",
    dimensions={"country": LogicalType.STRING},
    measures={"gold": LogicalType.INT, "rate": LogicalType.FLOAT})


def _reference_logical_digest(table):
    """The logical digest's definition, row by row and cell by cell."""
    cols = [table.column(n) for n in table.schema.names()]
    total = 0
    for i in range(len(table)):
        row = tuple(_as_python(col[i]) for col in cols)
        digest = hashlib.sha256(repr(row).encode("utf-8")).digest()
        total = (total + int.from_bytes(digest, "big")) % (1 << 256)
    return format(total, "064x")


def _logical_table(rows, np_strings=False):
    """A LOGICAL_SCHEMA table of ``rows``; ``np_strings`` stores the
    country column as ``np.str_`` objects."""
    columns = {n: [r[i] for r in rows]
               for i, n in enumerate(LOGICAL_SCHEMA.names())}
    if np_strings:
        countries = np.empty(len(rows), dtype=object)
        countries[:] = [np.str_(c) for c in columns["country"]]
        columns["country"] = countries
    return ActivityTable(LOGICAL_SCHEMA, columns)


_texts = st.text(st.characters(blacklist_categories=("Cs",)),
                 max_size=6)
_logical_rows = st.lists(st.tuples(
    _texts, st.integers(-2**40, 2**40), _texts, _texts,
    st.integers(-2**63, 2**63 - 1),
    st.floats(allow_nan=False, width=64)), max_size=12)

_stored_rows = st.lists(st.tuples(
    _texts, st.integers(-2**40, 2**40), _texts, _texts,
    st.integers(-2**63, 2**63 - 1),
    st.floats(allow_nan=False, width=64)), min_size=1, max_size=12)


class TestLogicalDigest:
    def test_golden(self):
        assert logical_digest_of(make_table1()) == (
            "64078ef336f821abcdf712dbe73806617c18c7d435c448a4f5b63cbdc15e8b85")
        mixed = _logical_table([
            ("ü1", -5, "launch", "Perú", -3, 0.1),
            ("日本", 7, "shop", "Perú", 2**40, -2.5e-300)],
            np_strings=True)
        assert logical_digest_of(mixed) == (
            "51c5bc0aaf75b1d1b3a0b3ad1de2b9aca2afb955961e69cefbf11327275dcc19")
        assert logical_digest_of(make_table1().slice(0, 0)) == "0" * 64

    @settings(max_examples=60, deadline=None)
    @given(rows=_logical_rows, np_strings=st.booleans(),
           tiled=st.booleans())
    @example(rows=[], np_strings=True, tiled=True)
    @example(rows=[("u", 1, "a", "ñ", -1, 1.5)], np_strings=True,
             tiled=False)
    @example(rows=[("u", 1, "a", "ñ", -1, 1.5)], np_strings=True,
             tiled=True)
    def test_equals_the_row_by_row_definition(self, rows, np_strings,
                                              tiled):
        table = _logical_table(rows, np_strings)
        if tiled and rows:
            # Longer than one row block: the sum runs over blocks.
            reps = ROW_BLOCK // len(rows) + 2
            table = table.take(np.arange(len(rows) * reps) % len(rows))
            assert len(table) > ROW_BLOCK
        assert logical_digest_of(table) == _reference_logical_digest(table)

    @settings(max_examples=60, deadline=None)
    @given(rows=_stored_rows, np_strings=st.booleans())
    @example(rows=[("ü", 0, "日本", "ñ", -2**63, -0.0),
                   ("u", 1, "a", "", -1, float("-inf"))],
             np_strings=True)
    @example(rows=[("u", 0, "a", "b", 2**63 - 1, -0.0)], np_strings=False)
    @example(rows=[("u", 0, "a", "b", -1, 0.0),
                   ("v", 1, "a", "b", 2**63 - 1, 0.0)], np_strings=False)
    @example(rows=[("u", 0, "a", "b", -2**63, 0.0),
                   ("v", 1, "a", "b", 2**63 - 1, 0.0)], np_strings=True)
    @example(rows=[("u", 0, "a", "\x00", 0, 0.0),
                   ("v", 1, "a", "", 0, 0.0),
                   ("w", 2, "a", "b\x00", 0, 0.0)], np_strings=True)
    def test_survives_compress_serialize_load(self, rows, np_strings):
        """A compaction sums its sources' digests instead of hashing the
        merged rows: that holds only if a stored shard decodes to rows
        with the digest its batch had — an INT column spanning 2**63 or
        more included."""
        table = _logical_table(rows, np_strings)
        stored = deserialize(serialize(compress(table, target_chunk_rows=4)))
        assert logical_digest_of(stored.decompress()) == \
            logical_digest_of(table)


@pytest.mark.parametrize("low, high", [(-1, 2**63 - 1),
                                       (-2**63, 2**63 - 1),
                                       (-2**63, 0)])
def test_an_int_column_spanning_2_63_is_stored_and_aggregated(
        tmp_path, low, high):
    """An INT column whose chunk spans 2**63 or more is stored as a
    file and as an appended shard, and Sum, Min and Max over it equal
    the oracle's."""
    table = _logical_table([("u", 0, "launch", "AU", 0, 0.0),
                            ("u", 3600, "shop", "AU", low, 0.0),
                            ("v", 0, "launch", "AU", 0, 0.0),
                            ("v", 3600, "shop", "AU", high, 0.0)])
    text = ('SELECT country, COHORTSIZE, AGE, Sum(gold), Min(gold), '
            'Max(gold) FROM T BIRTH FROM action = "launch" '
            'COHORT BY country')
    save(compress(table, target_chunk_rows=8), tmp_path / "t.cohana")
    append_shard(tmp_path / "shards", table, target_chunk_rows=8)
    for layout in (tmp_path / "t.cohana", tmp_path / "shards"):
        eng = CohanaEngine()
        eng.load_table("T", layout)
        assert eng.table("T").decompress().column("gold").tolist() == \
            [0, low, 0, high]
        expected = oracle_evaluate(eng.parse(text), table)
        assert eng.query(text).rows == expected.rows
        assert (low, high) in {row[-2:] for row in expected.rows}


# -- refresh re-opens only new shards -----------------------------------------


class TestRefreshReuse:
    @pytest.fixture
    def counted_loads(self, monkeypatch):
        """Every path ``repro.storage.format.load`` opens."""
        from repro.storage import format as file_format
        opened = []
        real = file_format.load

        def load_counting(path):
            opened.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(file_format, "load", load_counting)
        return opened

    def test_unchanged_shards_are_kept_and_only_new_ones_open(
            self, shard_dir, parts, counted_loads):
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        eng.query(QUERY)
        before = eng.table("G")
        parsed = [s.chunks.loaded_count for s in before.shards]
        assert all(parsed)
        entry = append_shard(shard_dir, parts[4], target_chunk_rows=64)
        del counted_loads[:]
        after = eng.refresh_table("G")
        assert counted_loads == [entry["path"]]
        assert len(after.shards) == 5
        assert all(a is b for a, b in zip(after.shards, before.shards))
        assert [s.chunks.loaded_count for s in after.shards[:4]] == parsed
        assert after.generation == before.generation + 1

        fresh = CohanaEngine()
        fresh.load_table("G", shard_dir)
        for text in (QUERY, ROLE_QUERY):
            eng.partials.clear()
            assert eng.query(text).rows == fresh.query(text).rows

    def test_a_corrupted_unchanged_shard_still_fails(self, shard_dir,
                                                     parts):
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        append_shard(shard_dir, parts[4], target_chunk_rows=64)
        victim = shard_dir / read_manifest(shard_dir)["shards"][1]["path"]
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        stat = victim.stat()
        os.utime(victim, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        with pytest.raises(StorageError, match="shard digest mismatch"):
            eng.refresh_table("G")

    def test_compacted_shards_unpin_and_collect(self, shard_dir):
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        old_files = {e["path"] for e in read_manifest(shard_dir)["shards"]}
        result = compact(shard_dir)
        assert set(result.merged) == old_files
        assert result.gc_removed == ()  # the engine's snapshot pins them
        assert old_files <= pinned_shard_files(shard_dir)

        eng.refresh_table("G")
        gc.collect()  # the replaced snapshot is gone: its pin with it
        assert pinned_shard_files(shard_dir) == {result.new_shard}
        assert set(gc_shards(shard_dir)) == old_files
        assert eng.table("G").n_shards == 1
        assert eng.query(QUERY).rows


class TestEngineConcurrency:
    def test_concurrent_registrations_get_unique_tokens(self):
        """mem: tokens come from a guarded counter — concurrent
        replacements must never share one."""
        eng = CohanaEngine()
        compressed = compress(make_table1(), target_chunk_rows=4)
        tokens = []
        lock = threading.Lock()

        def register(i):
            for _ in range(20):
                eng.register(f"T{i}", compressed, replace=True)
                token = eng.version_token(f"T{i}")
                with lock:
                    tokens.append(token)

        threads = [threading.Thread(target=register, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(tokens)) == len(tokens)


# -- CLI ----------------------------------------------------------------------


class TestIngestCLI:
    @pytest.fixture
    def csvs(self, tmp_path, game):
        from repro.table import write_csv

        paths = []
        for i, batch in enumerate(_user_batches(game, 2)):
            path = tmp_path / f"batch{i}.csv"
            write_csv(batch, path)
            paths.append(path)
        return paths

    def test_ingest_create_append_query(self, tmp_path, csvs, capsys):
        d = tmp_path / "table"
        assert main(["ingest", str(csvs[0]), str(d),
                     "--chunk-rows", "64"]) == 0
        assert "created" in capsys.readouterr().out
        assert main(["ingest", str(csvs[1]), str(d), "--append",
                     "--chunk-rows", "64"]) == 0
        assert "2 shards" in capsys.readouterr().out
        assert main(["query", str(d), QUERY]) == 0
        assert "cohort_size" in capsys.readouterr().out

    def test_ingest_existing_requires_append_flag(self, tmp_path, csvs,
                                                  capsys):
        d = tmp_path / "table"
        assert main(["ingest", str(csvs[0]), str(d)]) == 0
        capsys.readouterr()
        assert main(["ingest", str(csvs[1]), str(d)]) == 1
        assert "--append" in capsys.readouterr().err

    def test_ingest_overlap_is_clean_error(self, tmp_path, csvs,
                                           capsys):
        d = tmp_path / "table"
        assert main(["ingest", str(csvs[0]), str(d)]) == 0
        assert main(["ingest", str(csvs[0]), str(d), "--append"]) == 1
        assert "one shard" in capsys.readouterr().err

    def test_inspect_reports_each_shard(self, shard_dir, capsys):
        """Each shard has its own dictionaries, so ``inspect`` reports
        one block per shard file."""
        assert main(["inspect", str(shard_dir)]) == 0
        out = capsys.readouterr().out
        for entry in read_manifest(shard_dir)["shards"]:
            assert f"{shard_dir / entry['path']}: {entry['n_rows']} " \
                   f"tuples" in out
        assert out.count("global dicts") == 4
