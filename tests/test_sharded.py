"""Sharded multi-file tables: manifest, append path, execution, cache.

Covers the PR-5 tentpole: manifest round-trip and validation, the
append-only ingestion path (new shard + atomic manifest replace,
existing bytes untouched, user-disjointness enforced), lazy sharded
loading, digest-exact query parity against a single-file table across
kernels / backends / scan modes, per-shard pruning stats, composed
version tokens, service invalidation on append (with warm caches on
byte-identical reloads), the per-shard plan cache, and the ``ingest``
CLI command.
"""

import hashlib
import json
import threading
from dataclasses import asdict

import pytest

from repro.cli import main
from repro.cohana import CohanaEngine
from repro.cohana import pipeline
from repro.cohana.pipeline import (
    SHARD_PLAN_CACHE_STATS,
    clear_shard_plan_cache,
    shard_value_partial,
)
from repro.datagen import GameConfig, generate
from repro.errors import CatalogError, StorageError
from repro.service import QueryService
from repro.storage import (
    MANIFEST_NAME,
    CompressedActivityTable,
    ShardedActivityTable,
    append_shard,
    compose_digest,
    compress,
    is_sharded_path,
    load,
    read_manifest,
    save,
)

from helpers import make_table1

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


# -- the sharded table facade -------------------------------------------------


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

    def test_chunk_view_locates_owners(self, shard_dir):
        table = load(shard_dir)
        seen = 0
        for i, shard in enumerate(table.shards):
            for local in range(shard.n_chunks):
                assert table.shard_of(seen) == (i, local)
                assert table.chunks[seen] is shard.chunks[local]
                seen += 1
        with pytest.raises(IndexError):
            table.chunks[seen]
        assert table.chunks[-1] is table.shards[-1].chunks[-1]

    def test_decode_chunk_refuses_merged_space(self, shard_dir):
        table = load(shard_dir)
        with pytest.raises(StorageError, match="owning shard"):
            table.decode_chunk(table.chunks[0])

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
    @pytest.mark.parametrize("scan_mode", ("auto", "decoded",
                                           "compressed"))
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
    @pytest.mark.parametrize("scan_mode", ("auto", "decoded"))
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
            assert sharded.query(QUERY, executor=executor).rows == \
                single.query(QUERY, executor=executor).rows

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
        with_prune = eng.query(ROLE_QUERY)
        without = eng.query(ROLE_QUERY, prune=False)
        assert with_prune.rows == without.rows


# -- version tokens, service invalidation, plan cache -------------------------


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

    def test_untouched_shard_plans_stay_warm_across_append(
            self, shard_dir, parts):
        clear_shard_plan_cache()
        eng = CohanaEngine()
        eng.load_table("G", shard_dir)
        eng.query(QUERY)
        misses_before = SHARD_PLAN_CACHE_STATS["misses"]
        hits_before = SHARD_PLAN_CACHE_STATS["hits"]
        append_shard(shard_dir, parts[4], target_chunk_rows=64)
        eng.refresh_table("G")
        eng.query(QUERY)
        # only the new shard needed planning; the four old shards hit.
        assert SHARD_PLAN_CACHE_STATS["misses"] == misses_before + 1
        assert SHARD_PLAN_CACHE_STATS["hits"] >= hits_before + 4

    def test_refresh_requires_disk_backing(self):
        eng = CohanaEngine()
        eng.create_table("M", make_table1())
        with pytest.raises(CatalogError, match="not loaded from disk"):
            eng.refresh_table("M")


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
