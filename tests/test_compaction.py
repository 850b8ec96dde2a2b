"""Shard compaction, retention, snapshot pinning, and the caches that
must (and must not) survive a rewrite.

The contract under test: compaction is *physically* a new table —
shard files, content digests, and manifest generation all change — but
*logically* the identical multiset of rows. So the engine's version
token (derived from the logical digest) is stable across a compaction,
the service's result cache keeps hitting, and materialized-view
partials re-key to the new shard digests with the stale ones pruned.
Retention is the one operation that changes the logical content, and
it must roll the token. Snapshot pinning keeps every already-open
reader on its generation's files until release, and the GC never
deletes a pinned file.
"""

import json
import os
import shutil
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cohana import CohanaEngine, workers
from repro.cohana.pipeline import KERNELS, ChunkKernel, register_kernel
from repro.datagen import GameConfig, generate
from repro.errors import StorageError
from repro.schema import ActivitySchema, LogicalType, parse_timestamp
from repro.service import QueryService
from repro.service.fingerprint import view_fingerprint
from repro.service.protocol import result_digest
from repro.storage import (
    VERIFIED_SHARDS,
    append_shard,
    combine_logical,
    compact,
    compress,
    gc_shards,
    load_sharded,
    prune_retention,
    read_manifest,
    select_small_shards,
)
from repro.storage.format import serialize
from repro.table import ActivityTable
from repro.workloads import queries

from helpers import make_game_schema, worker_pids
from test_materialized_views import DDL, QUERY, _random_table, _user_batches
from test_sharded import _reference_logical_digest

COHORT_QUERY = ('SELECT country, COHORTSIZE, AGE, UserCount() FROM G '
                'BIRTH FROM action = "launch" COHORT BY country')


@pytest.fixture
def shard_dir(tmp_path):
    d = tmp_path / "G"
    for batch in _user_batches(_random_table(7, n_users=24), 3):
        append_shard(d, batch, target_chunk_rows=16)
    return d


def _rows(directory):
    table = load_sharded(directory)
    try:
        return sorted(table.decompress().to_rows())
    finally:
        table.release()


def _shard_files(directory):
    return sorted(p.name for p in directory.glob("shard-*.cohana"))


# ---------------------------------------------------------------------------
# The rewrite itself
# ---------------------------------------------------------------------------


class TestCompact:
    def test_merges_to_one_shard_same_rows(self, shard_dir):
        rows0 = _rows(shard_dir)
        gen0 = read_manifest(shard_dir)["generation"]
        result = compact(shard_dir)
        assert result.compacted
        assert len(result.merged) == 3
        assert result.generation == gen0 + 1
        manifest = read_manifest(shard_dir)
        assert manifest["generation"] == gen0 + 1
        assert [e["path"] for e in manifest["shards"]] \
            == [result.new_shard]
        assert result.n_rows == len(rows0)
        assert _rows(shard_dir) == rows0

    def test_an_orphan_in_the_way_is_refused_until_gc(self, shard_dir):
        """A crashed compaction leaves its shard file under the next
        name: a compaction without GC refuses it with the one writer's
        message, which names the fix, and one with GC reaps it first."""
        from faultinject import FaultInjector, InjectedCrash

        gen0 = read_manifest(shard_dir)["generation"]
        with FaultInjector(crash_at="manifest_replace"), \
                pytest.raises(InjectedCrash):
            compact(shard_dir)
        with pytest.raises(StorageError,
                           match="already exists.*run gc_shards"):
            compact(shard_dir, gc=False)
        assert read_manifest(shard_dir)["generation"] == gen0
        assert compact(shard_dir).generation == gen0 + 1

    def test_logical_digest_invariant_physical_not(self, shard_dir):
        before = load_sharded(shard_dir)
        logical0, physical0 = (before.logical_digest,
                               before.content_digest)
        before.release()
        compact(shard_dir)
        after = load_sharded(shard_dir)
        try:
            assert after.logical_digest == logical0
            assert after.content_digest != physical0
        finally:
            after.release()

    def test_small_rows_merges_only_small_shards(self, tmp_path):
        d = tmp_path / "G"
        parts = _user_batches(_random_table(8, n_users=48), 6)
        big = parts[0].concat(parts[1]).concat(parts[2])
        smalls = parts[3:]
        append_shard(d, big, target_chunk_rows=16)
        for small in smalls:
            append_shard(d, small, target_chunk_rows=16)
        entries = read_manifest(d)["shards"]
        threshold = max(e["n_rows"] for e in entries[1:])
        assert entries[0]["n_rows"] > threshold
        picked = select_small_shards(entries, threshold)
        assert picked == list(range(1, len(entries)))

        rows0 = _rows(d)
        result = compact(d, small_rows=threshold)
        assert result.compacted
        assert entries[0]["path"] not in result.merged
        manifest = read_manifest(d)
        # The big shard survives untouched, in place.
        assert manifest["shards"][0] == entries[0]
        assert len(manifest["shards"]) == 2
        assert _rows(d) == rows0

    def test_single_shard_is_a_noop(self, tmp_path):
        d = tmp_path / "G"
        append_shard(d, _random_table(10, n_users=8),
                     target_chunk_rows=16)
        gen0 = read_manifest(d)["generation"]
        result = compact(d)
        assert not result.compacted
        assert result.generation == gen0
        assert read_manifest(d)["generation"] == gen0

    def test_fewer_than_two_small_shards_is_a_noop(self, shard_dir):
        assert not compact(shard_dir, small_rows=0).compacted


# ---------------------------------------------------------------------------
# What survives a compaction: version token, result cache; what
# re-keys: per-shard plans and partials
# ---------------------------------------------------------------------------


class TestCachesAcrossCompaction:
    def test_version_token_stable_result_cache_hits(self, shard_dir):
        engine = CohanaEngine()
        engine.load_table("G", shard_dir)
        service = QueryService(engine)
        token0 = engine.version_token("G")
        cold = service.query(COHORT_QUERY)

        compact(shard_dir)
        engine.refresh_table("G")
        assert engine.version_token("G") == token0
        warm, stats = service.query_with_stats(COHORT_QUERY)
        assert stats.cache_disposition == "hit"
        assert warm.rows == cold.rows

    def test_merged_logical_digest_keeps_the_token(self, shard_dir):
        engine = CohanaEngine()
        engine.load_table("G", shard_dir)
        token0 = engine.version_token("G")
        logical0 = engine.table("G").logical_digest
        rows = load_sharded(shard_dir).decompress()
        entries0 = read_manifest(shard_dir)["shards"]

        result = compact(shard_dir)
        (merged,) = read_manifest(shard_dir)["shards"]
        assert merged["path"] == result.new_shard
        assert merged["logical_digest"] == combine_logical(
            e["logical_digest"] for e in entries0)
        assert merged["logical_digest"] == _reference_logical_digest(rows)
        engine.refresh_table("G")
        assert engine.table("G").logical_digest == logical0
        assert engine.version_token("G") == token0 == f"sha256:{logical0}"

    def test_append_still_rolls_the_token(self, tmp_path):
        d = tmp_path / "G"
        batches = _user_batches(_random_table(12, n_users=24), 3)
        for batch in batches[:2]:
            append_shard(d, batch, target_chunk_rows=16)
        engine = CohanaEngine()
        engine.load_table("G", d)
        token0 = engine.version_token("G")
        append_shard(d, batches[2], target_chunk_rows=16)
        engine.refresh_table("G")
        assert engine.version_token("G") != token0

    def test_view_partials_rekey_and_stale_ones_prune(self, shard_dir):
        engine = CohanaEngine()
        engine.load_table("G", shard_dir)
        engine.execute_statement(DDL)
        direct = engine.query(QUERY).rows
        partials_dir = shard_dir / "VIEWS" / "partials"
        assert len(list(partials_dir.rglob("*.json"))) == 3

        compact(shard_dir)
        engine.refresh_table("G")  # default: refreshes views too
        result, stats = engine.serve_view("weekly")
        assert result.rows == direct
        assert stats.shards_total == 1
        # The three pre-compaction partials are orphans (their shard
        # digests exist nowhere anymore) and must be pruned, not
        # accumulated.
        leftover = list(partials_dir.rglob("*.json"))
        assert len(leftover) == 1

    def test_refresh_after_compaction_composes_the_merged_shard(
            self, shard_dir):
        engine = CohanaEngine()
        engine.load_table("G", shard_dir)
        engine.execute_statement(DDL)
        compact(shard_dir)
        engine.refresh_table("G", refresh_views=False)
        stats = engine.refresh_view("weekly")
        assert stats.shards_total == 1
        # New digest, composed from the three sources' partials.
        assert (stats.shards_scanned, stats.shards_reused) == (0, 1)
        _, serve_stats = engine.serve_view("weekly")
        assert serve_stats.shards_scanned == 0

    def test_refresh_after_compaction_without_sources_scans_once(
            self, shard_dir):
        engine = CohanaEngine()
        engine.load_table("G", shard_dir)
        engine.execute_statement(DDL)
        compact(shard_dir)
        engine.refresh_table("G", refresh_views=False)
        # The sources' partials are gone from memory and from disk.
        engine.partials.clear()
        shutil.rmtree(shard_dir / "VIEWS" / "partials")
        stats = engine.refresh_view("weekly")
        assert stats.shards_total == 1
        assert stats.shards_scanned == 1  # new digest, one recompute
        _, serve_stats = engine.serve_view("weekly")
        assert serve_stats.shards_scanned == 0


# ---------------------------------------------------------------------------
# Retention
# ---------------------------------------------------------------------------


def _batches_by_day(seed=21):
    """Three user-disjoint batches whose time ranges are separated by
    whole days, so a day-granular cutoff cleanly classifies shards."""
    from repro.table import ActivityTable

    rows_by_day = {d: [] for d in (1, 5, 9)}
    for i, day in enumerate(sorted(rows_by_day) * 6):
        u = f"u{i:03d}"
        rows_by_day[day].append(
            (u, f"2013/05/{day:02d}:0{i % 4}15", "launch", "wizard",
             "Peru", i))
        rows_by_day[day].append(
            (u, f"2013/05/{day:02d}:1{i % 4}15", "shop", "wizard",
             "Peru", i))
    schema = make_game_schema()
    return [ActivityTable.from_rows(schema, rows_by_day[d])
            for d in (1, 5, 9)]


class TestRetention:
    def test_drops_only_fully_expired_shards(self, tmp_path):
        d = tmp_path / "G"
        for batch in _batches_by_day():
            append_shard(d, batch, target_chunk_rows=16)
        gen0 = read_manifest(d)["generation"]
        cutoff = parse_timestamp("2013/05/05:0000")
        result = prune_retention(d, older_than=cutoff)
        assert result.pruned
        assert len(result.removed) == 1 and result.kept == 2
        assert result.generation == gen0 + 1
        table = load_sharded(d)
        try:
            times = [r[1] for r in table.decompress().to_rows()]
            assert min(times) >= cutoff
        finally:
            table.release()

    def test_noop_keeps_generation(self, tmp_path):
        d = tmp_path / "G"
        for batch in _batches_by_day():
            append_shard(d, batch, target_chunk_rows=16)
        gen0 = read_manifest(d)["generation"]
        result = prune_retention(
            d, older_than=parse_timestamp("2013/05/01:0000"))
        assert not result.pruned
        assert result.generation == gen0
        assert read_manifest(d)["generation"] == gen0

    def test_refuses_to_empty_the_table(self, tmp_path):
        d = tmp_path / "G"
        for batch in _batches_by_day():
            append_shard(d, batch, target_chunk_rows=16)
        with pytest.raises(StorageError, match="every shard"):
            prune_retention(
                d, older_than=parse_timestamp("2014/01/01:0000"))


# ---------------------------------------------------------------------------
# Maintenance reads the manifest and opens only what it merges
# ---------------------------------------------------------------------------


@pytest.fixture
def loads(monkeypatch):
    """Every shard file ``repro.storage.format.load`` opens."""
    from repro.storage import format as file_format
    opened = []
    real = file_format.load

    def load_counting(path):
        opened.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(file_format, "load", load_counting)
    return opened


def _corrupt(path):
    """Flip a payload byte, and move the mtime so no memo hides it."""
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))


def _big_then_small(directory):
    """One shard of three batches, then three single-batch shards;
    returns the row threshold that picks exactly the small ones."""
    parts = _user_batches(_random_table(8, n_users=48), 6)
    append_shard(directory, parts[0].concat(parts[1]).concat(parts[2]),
                 target_chunk_rows=16)
    for small in parts[3:]:
        append_shard(directory, small, target_chunk_rows=16)
    return max(e["n_rows"] for e in read_manifest(directory)["shards"][1:])


def _rewrite_manifest(directory, edit):
    manifest = read_manifest(directory)
    edit(manifest)
    (directory / "MANIFEST.json").write_text(json.dumps(manifest))


class TestMaintenanceOpensOnlyWhatItMerges:
    def test_compaction_opens_exactly_the_picked_shards(self, tmp_path,
                                                        loads):
        d = tmp_path / "G"
        threshold = _big_then_small(d)
        entries = read_manifest(d)["shards"]
        names = [e["path"] for e in entries]
        del loads[:]
        result = compact(d, small_rows=threshold)
        assert result.merged == tuple(names[1:])
        assert sorted(loads) == names[1:]
        # The merged digest is the sum of the picked entries' alone.
        big, merged = read_manifest(d)["shards"]
        assert big == entries[0]
        assert merged["logical_digest"] == combine_logical(
            e["logical_digest"] for e in entries[1:])

    def test_retention_opens_no_shard(self, tmp_path, loads):
        d = tmp_path / "G"
        for batch in _batches_by_day():
            append_shard(d, batch, target_chunk_rows=16)
        del loads[:]
        result = prune_retention(
            d, older_than=parse_timestamp("2013/05/05:0000"))
        assert result.pruned
        assert loads == []

    def test_a_corrupt_picked_shard_still_fails_compaction(self,
                                                           tmp_path):
        d = tmp_path / "G"
        threshold = _big_then_small(d)
        before = (d / "MANIFEST.json").read_bytes()
        _corrupt(d / read_manifest(d)["shards"][2]["path"])
        with pytest.raises(StorageError, match="shard digest mismatch"):
            compact(d, small_rows=threshold)
        assert (d / "MANIFEST.json").read_bytes() == before

    def test_a_corrupt_unpicked_shard_blocks_no_maintenance(self,
                                                             tmp_path):
        d = tmp_path / "G"
        threshold = _big_then_small(d)
        big = read_manifest(d)["shards"][0]["path"]
        _corrupt(d / big)
        assert compact(d, small_rows=threshold).compacted
        e = tmp_path / "H"
        for batch in _batches_by_day():
            append_shard(e, batch, target_chunk_rows=16)
        _corrupt(e / read_manifest(e)["shards"][-1]["path"])
        result = prune_retention(
            e, older_than=parse_timestamp("2013/05/05:0000"))
        assert len(result.removed) == 1 and result.kept == 2

    def test_merged_from_lists_the_sources_in_range_order(self,
                                                          tmp_path):
        d = tmp_path / "G"
        low, mid, high = _user_batches(_random_table(9, n_users=24), 3)
        for batch in (high, low, mid):
            append_shard(d, batch, target_chunk_rows=16)
        entries = read_manifest(d)["shards"]
        union = load_sharded(d)
        try:
            rows = union.decompress()
        finally:
            union.release()
        compact(d)
        (merged,) = read_manifest(d)["shards"]
        # Range order: the low users' shard first.
        assert merged["merged_from"] == [
            [e["content_digest"], e["logical_digest"]]
            for e in (entries[1], entries[2], entries[0])]
        assert (d / merged["path"]).read_bytes() == _sorted_union_bytes(
            rows, 16)

    @pytest.mark.parametrize("bad", [
        "x", [], [["a" * 64, "b" * 64]], [["a" * 64], ["b" * 64]],
        [["a" * 64, "b" * 64], ["a" * 64, "B" * 64]]])
    def test_a_malformed_merged_from_fails_the_manifest(self, shard_dir,
                                                        bad):
        compact(shard_dir)
        _rewrite_manifest(shard_dir, lambda m: m["shards"][0].update(
            merged_from=bad))
        with pytest.raises(StorageError, match="bad merged_from"):
            read_manifest(shard_dir)


def _sorted_union_bytes(rows, chunk_rows):
    """The merged shard compaction always wrote: the union sorted by
    primary key, then compressed and serialized."""
    return serialize(compress(rows.sorted_by_primary_key(),
                              target_chunk_rows=chunk_rows))


# ---------------------------------------------------------------------------
# A merged shard's partial is composed from its sources'
# ---------------------------------------------------------------------------


SESSION_QUERY = ('SELECT country, COHORTSIZE, AGE, Max(s), Sum(s), '
                 'Count(*) FROM G BIRTH FROM action = "launch" '
                 'AGE ACTIVITIES IN s > 1 '
                 'SESSIONIZE (GAP = 600 seconds) AS s COHORT BY country')
#: The paper's templates, every aggregate, and a SESSIONIZE query.
TEMPLATES = [
    queries.q1("G"), queries.q2("G"), queries.q3("G"), queries.q4("G"),
    queries.q5(*queries.DEFAULT_RANGE, table="G"),
    queries.q6(*queries.DEFAULT_RANGE, table="G"),
    queries.q7(9, "G"), queries.q8(9, "G"),
    ('SELECT role, COHORTSIZE, AGE, Count(*), Sum(gold), Avg(gold), '
     'Min(gold), Max(gold), UserCount() FROM G BIRTH FROM '
     'action = "shop" COHORT BY role'),
    SESSION_QUERY,
]


@given(seed=st.integers(0, 2**16), n_shards=st.integers(2, 4),
       chunk_rows=st.sampled_from([8, 64, 4096]),
       interleaved=st.booleans(), reverse=st.booleans())
@settings(max_examples=12, deadline=None)
def test_property_a_composed_partial_answers_like_a_scan(
        seed, n_shards, chunk_rows, interleaved, reverse):
    """Shards of contiguous or interleaved user ids (the latter take
    the sort fallback), appended in either order, are read with every
    template, then compacted into one. The merged file is the sorted
    union's, and every template reads it warm, composed from the
    sources' partials, with the rows a cold scan of it gives."""
    table = generate(GameConfig(n_users=12, seed=seed))
    table = table.sorted_by_primary_key()
    blocks = list(table.user_blocks())
    if interleaved:
        groups = [blocks[i::n_shards] for i in range(n_shards)]
    else:
        per = -(-len(blocks) // n_shards)
        groups = [blocks[i:i + per] for i in range(0, len(blocks), per)]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "G"
        for group in reversed(groups) if reverse else groups:
            rows = np.concatenate([np.arange(start, stop)
                                   for _user, start, stop in group])
            append_shard(d, table.take(rows), target_chunk_rows=chunk_rows)
        engine = CohanaEngine()
        engine.load_table("G", d)
        for text in TEMPLATES:
            engine.query(text)
        compact(d)
        (merged,) = read_manifest(d)["shards"]
        assert (d / merged["path"]).read_bytes() == _sorted_union_bytes(
            table, chunk_rows)
        engine.refresh_table("G")
        cold = CohanaEngine()
        cold.load_table("G", d)
        for text in TEMPLATES:
            got, stats = engine.query_with_stats(text)
            assert (stats.shards_scanned, stats.shards_reused) == (0, 1)
            assert got.rows == cold.query(text).rows, text


FLOAT_SCHEMA = ActivitySchema.build(
    user="player", time="time", action="action",
    dimensions={"country": LogicalType.STRING},
    measures={"gold": LogicalType.INT, "rate": LogicalType.FLOAT})


def _float_shards(directory):
    """Three user-disjoint shards of a table with a FLOAT measure whose
    sums depend on the order they are added in."""
    for batch in range(3):
        rows = []
        for i in range(6):
            user = f"u{batch}{i}"
            rows.append((user, 1368957600 + i * 3600, "launch",
                         "Peru", i, 0.1 * (i + 1)))
            rows.append((user, 1369044000 + i * 3600, "shop",
                         "Peru", 10 * i, 1e16 if i % 2 else 0.3))
        append_shard(directory, ActivityTable.from_rows(FLOAT_SCHEMA, rows),
                     target_chunk_rows=4)


class TestComposition:
    def test_a_direct_read_after_compaction_scans_nothing(self,
                                                          shard_dir):
        engine = CohanaEngine()
        engine.load_table("G", shard_dir)
        before = engine.query(QUERY).rows
        compact(shard_dir)
        engine.refresh_table("G")
        result, stats = engine.query_with_stats(QUERY)
        assert result.rows == before
        assert (stats.shards_total, stats.shards_scanned,
                stats.shards_reused, stats.rows_scanned) == (1, 0, 1, 0)
        _, again = engine.query_with_stats(QUERY)
        assert (again.shards_scanned, again.shards_reused) == (0, 1)

    def test_a_float_sum_rescans_the_merged_shard(self, tmp_path):
        d = tmp_path / "F"
        _float_shards(d)
        engine = CohanaEngine()
        engine.load_table("F", d)
        texts = [f'SELECT country, COHORTSIZE, AGE, {agg} FROM F BIRTH '
                 f'FROM action = "launch" COHORT BY country'
                 for agg in ("Sum(rate)", "Avg(rate)", "Sum(gold)")]
        for text in texts:
            engine.query(text)
        compact(d)
        engine.refresh_table("F")
        cold = CohanaEngine()
        cold.load_table("F", d)
        scanned = []
        for text in texts:
            result, stats = engine.query_with_stats(text)
            assert result.rows == cold.query(text).rows
            scanned.append(stats.shards_scanned)
        # A FLOAT input rescans; the INT Sum beside it composes.
        assert scanned == [1, 1, 0]

    def test_a_missing_source_rescans_the_merged_shard(self, shard_dir):
        engine = CohanaEngine()
        engine.load_table("G", shard_dir)
        expected = engine.query(QUERY).rows
        fingerprint = view_fingerprint(engine.parse(QUERY))
        source = read_manifest(shard_dir)["shards"][1]["content_digest"]
        victim = engine.partials.peek((fingerprint, source))
        assert engine.partials.invalidate_where(
            lambda partial: partial is victim) == 1
        compact(shard_dir)
        engine.refresh_table("G")
        result, stats = engine.query_with_stats(QUERY)
        assert (stats.shards_scanned, stats.shards_reused) == (1, 0)
        assert result.rows == expected

    @pytest.mark.parametrize("lie", ["drop_a_source", "edit_a_digest"])
    def test_a_merged_from_whose_sum_differs_rescans(self, shard_dir,
                                                      lie):
        engine = CohanaEngine()
        engine.load_table("G", shard_dir)
        expected = engine.query(QUERY).rows
        compact(shard_dir)

        def edit(manifest):
            sources = manifest["shards"][0]["merged_from"]
            if lie == "drop_a_source":
                del sources[-1]
            else:
                sources[0][1] = "0" * 64
        _rewrite_manifest(shard_dir, edit)
        engine.refresh_table("G")
        result, stats = engine.query_with_stats(QUERY)
        assert (stats.shards_scanned, stats.shards_reused) == (1, 0)
        assert result.rows == expected


# ---------------------------------------------------------------------------
# Snapshot pinning and GC
# ---------------------------------------------------------------------------


class TestPinningAndGC:
    def test_gc_never_deletes_pinned_files(self, shard_dir):
        pinned = load_sharded(shard_dir)
        old_files = _shard_files(shard_dir)
        result = compact(shard_dir)
        assert result.compacted
        assert result.gc_removed == ()  # the pin protected every file
        assert set(old_files) <= set(_shard_files(shard_dir))
        # The pinned snapshot still reads its own generation.
        assert pinned.generation == result.generation - 1
        pinned.decompress()
        pinned.release()
        removed = gc_shards(shard_dir)
        assert sorted(removed) == old_files
        assert _shard_files(shard_dir) == [result.new_shard]

    def test_reader_mid_query_never_sees_mixed_generations(
            self, shard_dir):
        """Event-sequenced: a reader blocks *inside* a scan while a
        compaction publishes the next generation and tries to GC. The
        reader's pinned files must survive until it finishes, and its
        answer must equal the pre-compaction truth."""
        started, release = threading.Event(), threading.Event()
        inner = KERNELS["vectorized"].scan

        def scan(table, chunk, plan):
            started.set()
            assert release.wait(timeout=30), "never released"
            return inner(table, chunk, plan)

        register_kernel(ChunkKernel(name="gated", scan=scan))
        try:
            engine = CohanaEngine()
            engine.load_table("G", shard_dir)
            expected = engine.query(COHORT_QUERY).rows
            old_files = _shard_files(shard_dir)
            # The first read filled the engine's partial cache: empty it
            # so the gated read must scan.
            engine.partials.clear()

            outcome = {}

            def run():
                try:
                    outcome["rows"] = engine.query(
                        COHORT_QUERY, executor="gated").rows
                except Exception as exc:  # pragma: no cover
                    outcome["error"] = exc

            reader = threading.Thread(target=run)
            reader.start()
            assert started.wait(timeout=30)
            # Mid-scan: publish the next generation and attempt GC.
            result = compact(shard_dir)
            assert result.compacted
            assert result.gc_removed == ()
            for name in old_files:
                assert (shard_dir / name).is_file(), \
                    "GC deleted a file pinned by a mid-query reader"
            release.set()
            reader.join(timeout=60)
            assert outcome.get("rows") == expected
            # Only after the engine lets go of the old snapshot does
            # the GC reclaim its files.
            engine.refresh_table("G")
            gc_shards(shard_dir)
            assert _shard_files(shard_dir) == [result.new_shard]
        finally:
            del KERNELS["gated"]


# ---------------------------------------------------------------------------
# Verify memoization (the satellite bugfix)
# ---------------------------------------------------------------------------


class TestVerifyMemoization:
    def test_reopen_memoizes_instead_of_rehashing(self, shard_dir):
        VERIFIED_SHARDS.clear()
        counters = VERIFIED_SHARDS.counters
        hashed0, memoized0 = counters.misses, counters.hits
        load_sharded(shard_dir).release()
        hashed1 = counters.misses
        assert hashed1 == hashed0 + 3  # one real hash per shard, first open
        load_sharded(shard_dir).release()
        load_sharded(shard_dir).release()
        assert counters.misses == hashed1
        assert counters.hits >= memoized0 + 6

    def test_corruption_still_fires_after_memoization(self, shard_dir):
        load_sharded(shard_dir).release()  # warm the verify cache
        victim = shard_dir / read_manifest(shard_dir)["shards"][0]["path"]
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        # The rewrite can land within the same mtime tick at the same
        # size; a real corruption (bit rot) changes neither stat field
        # either — the memo key must include enough to miss. Advance
        # the mtime as a same-size in-place corruption would not, then
        # prove the cold path itself still fires.
        stat = victim.stat()
        os.utime(victim, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        with pytest.raises(StorageError, match="shard digest mismatch"):
            load_sharded(shard_dir)
        VERIFIED_SHARDS.clear()
        with pytest.raises(StorageError, match="shard digest mismatch"):
            load_sharded(shard_dir)


# ---------------------------------------------------------------------------
# Scan workers that outlive the files they opened
# ---------------------------------------------------------------------------


class TestWarmWorkerPool:
    def test_lifecycle_on_one_warm_pool_answers_like_serial(
            self, tmp_path):
        """append -> compact -> gc with the ``processes`` workers warm
        throughout: the workers hold the retired shard files open, and
        every step must still be answered from the live ones."""
        d = tmp_path / "G"
        first, second, third, fourth = _user_batches(
            _random_table(11, n_users=32), 4)
        append_shard(d, first, target_chunk_rows=16)
        append_shard(d, second, target_chunk_rows=16)
        engine = CohanaEngine()
        engine.load_table("G", d)
        workers.shutdown()
        try:
            seen = []

            def same_on_both_backends():
                # An empty partial cache before each run: both runs
                # read every live shard file.
                digests = set()
                for options in ({"jobs": 2, "backend": "processes"}, {}):
                    engine.partials.clear()
                    result, stats = engine.query_with_stats(
                        COHORT_QUERY, **options)
                    assert stats.chunks_total == engine.table("G").n_chunks
                    digests.add(result_digest(result))
                (got,) = digests
                seen.append(got)

            same_on_both_backends()
            pool = worker_pids()
            assert len(pool) == 2
            append_shard(d, third, target_chunk_rows=16)
            engine.refresh_table("G")
            same_on_both_backends()
            assert compact(d, gc=False).compacted
            engine.refresh_table("G")
            same_on_both_backends()
            assert gc_shards(d)
            same_on_both_backends()
            append_shard(d, fourth, target_chunk_rows=16)
            engine.refresh_table("G")
            same_on_both_backends()
            assert worker_pids() == pool
            # Appends changed the answer; compaction and GC did not.
            assert seen[0] != seen[1] == seen[2] == seen[3] != seen[4]
        finally:
            workers.shutdown()
