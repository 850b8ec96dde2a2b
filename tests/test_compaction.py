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

import os
import threading

import pytest

from repro.cohana import CohanaEngine, workers
from repro.cohana.pipeline import KERNELS, ChunkKernel, register_kernel
from repro.errors import StorageError
from repro.schema import parse_timestamp
from repro.service import QueryService
from repro.service.protocol import result_digest
from repro.storage import (
    VERIFIED_SHARDS,
    append_shard,
    combine_logical,
    compact,
    gc_shards,
    load_sharded,
    prune_retention,
    read_manifest,
    select_small_shards,
)

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

    def test_refresh_after_compaction_scans_merged_shard_once(
            self, shard_dir):
        engine = CohanaEngine()
        engine.load_table("G", shard_dir)
        engine.execute_statement(DDL)
        compact(shard_dir)
        engine.refresh_table("G", refresh_views=False)
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
