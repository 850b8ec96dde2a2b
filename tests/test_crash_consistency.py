"""Crash consistency of the shard publish path, by fault injection.

Every manifest publish (append, compaction, retention) follows one
discipline: write new shard files (exclusive create + fsync), write
the full new manifest to a fsynced temp file, commit with a single
atomic ``os.replace``. These tests kill the process — via
``faultinject.FaultInjector`` — at every crash point of that path and
prove the recovery contract:

* a crash at any point **before** the ``os.replace`` leaves the table
  loadable at exactly the pre-publish generation, with the pre-publish
  rows and logical digest — zero partial state is readable;
* a crash **after** the replace means the publish committed: the table
  loads at exactly the new generation;
* torn files (writes truncated mid-flight by the crash) are never
  read: they sit outside the manifest until the GC reaps them, and a
  retried operation succeeds after (or despite) cleanup;
* there is no third outcome — no torn manifest, no mixed-generation
  shard set — under any injected crash, including a failure of the
  ``os.replace`` syscall itself.

The randomized suites then interleave append/compact/query across
seeds (results digest-identical to a never-compacted table on all
three backends) and run reader/appender/compactor threads
concurrently, asserting digest parity at every generation a reader
observes.
"""

import hashlib
import random
import threading

import pytest

from repro.cohana import CohanaEngine
from repro.datagen import GameConfig, generate
from repro.errors import StorageError
from repro.storage import (
    CRASH_POINTS,
    MANIFEST_NAME,
    append_shard,
    combine_logical,
    compact,
    compress,
    gc_shards,
    load_sharded,
    logical_digest_of,
    read_manifest,
    save,
    sharded,
)

from faultinject import FaultInjector, InjectedCrash

QUERY = ('SELECT country, COHORTSIZE, AGE, UserCount() FROM G '
         'BIRTH FROM action = "launch" COHORT BY country')

#: Crash points that fire before the manifest ``os.replace`` commits —
#: recovery must land on the *old* generation; after the replace the
#: publish is committed and recovery lands on the new one.
PRE_COMMIT_POINTS = tuple(p for p in CRASH_POINTS
                          if p != "manifest_published")


def _user_batches(table, n):
    table = table.sorted_by_primary_key()
    blocks = list(table.user_blocks())
    per = max(1, -(-len(blocks) // n))
    return [table.slice(blocks[i][1], blocks[min(i + per, len(blocks))
                                             - 1][2])
            for i in range(0, len(blocks), per)]


@pytest.fixture(scope="module")
def parts():
    full = generate(GameConfig(n_users=18, seed=11))
    return _user_batches(full, 4)


@pytest.fixture
def shard_dir(tmp_path, parts):
    d = tmp_path / "G"
    for batch in parts[:3]:
        append_shard(d, batch, target_chunk_rows=64)
    return d


def _snapshot(directory):
    """(generation, sorted rows, combined logical digest) of the table
    as a fresh reader sees it right now. Loading also re-verifies every
    shard payload against the manifest, so a snapshot that returns at
    all is internally consistent."""
    table = load_sharded(directory)
    try:
        generation = table.generation
        rows = sorted(table.decompress().to_rows())
        logical = combine_logical(
            entry["logical_digest"]
            for entry in table.manifest["shards"])
    finally:
        table.release()
    return generation, rows, logical


def _assert_no_partial_state(directory):
    """Every shard the manifest lists exists on disk (a reload can
    never hit a missing or mixed file)."""
    manifest = read_manifest(directory)
    for entry in manifest["shards"]:
        assert (directory / entry["path"]).is_file()


class TestCrashDuringCompaction:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_every_point_recovers_exactly(self, shard_dir, point):
        gen0, rows0, logical0 = _snapshot(shard_dir)
        with FaultInjector(crash_at=point) as inj, \
                pytest.raises(InjectedCrash):
            compact(shard_dir)
        assert inj.crashed and inj.points_fired()[-1] == point

        generation, rows, logical = _snapshot(shard_dir)
        if point == "manifest_published":
            # The os.replace landed before the crash: committed.
            assert generation == gen0 + 1
        else:
            # Nothing before the replace may commit anything.
            assert generation == gen0
        assert rows == rows0
        assert logical == logical0  # compaction never changes rows
        _assert_no_partial_state(shard_dir)

    @pytest.mark.parametrize("point", PRE_COMMIT_POINTS)
    def test_retry_after_crash_succeeds(self, shard_dir, point):
        gen0, rows0, logical0 = _snapshot(shard_dir)
        with FaultInjector(crash_at=point), \
                pytest.raises(InjectedCrash):
            compact(shard_dir)
        # The retry reaps any leftover of the crashed attempt itself
        # (gc=True pre-cleans under the publish lock) and completes.
        result = compact(shard_dir)
        assert result.compacted
        generation, rows, logical = _snapshot(shard_dir)
        assert generation == gen0 + 1
        assert rows == rows0 and logical == logical0
        assert len(read_manifest(shard_dir)["shards"]) == 1

    @pytest.mark.parametrize("point,tear",
                             [("shard_written", 7),
                              ("manifest_tmp_written", 10)])
    def test_torn_write_is_never_read(self, shard_dir, point, tear):
        """Truncate the just-written file to a few bytes before
        crashing — the on-disk state an unsynced write can leave. The
        torn file must be invisible to readers and reaped by GC."""
        gen0, rows0, logical0 = _snapshot(shard_dir)
        with FaultInjector(crash_at=point, tear_bytes=tear) as inj, \
                pytest.raises(InjectedCrash):
            compact(shard_dir)
        torn = inj.fired[-1][1]
        assert torn is not None and torn.stat().st_size == tear
        assert _snapshot(shard_dir) == (gen0, rows0, logical0)
        removed = gc_shards(shard_dir)
        assert torn.name in removed
        assert not torn.exists()
        assert _snapshot(shard_dir) == (gen0, rows0, logical0)

    def test_os_replace_failure_is_pre_commit(self, shard_dir,
                                              monkeypatch):
        """Even the rename syscall itself dying (disk yanked between
        the temp write and the commit) leaves the old generation."""
        gen0, rows0, logical0 = _snapshot(shard_dir)

        def torn_replace(src, dst):
            raise OSError("injected: disk vanished during rename")

        monkeypatch.setattr(sharded, "_os_replace", torn_replace)
        with pytest.raises(OSError, match="disk vanished"):
            compact(shard_dir)
        monkeypatch.undo()
        assert _snapshot(shard_dir) == (gen0, rows0, logical0)
        result = compact(shard_dir)
        assert result.compacted
        assert _snapshot(shard_dir)[0] == gen0 + 1


class TestCrashDuringAppend:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_every_point_recovers_exactly(self, shard_dir, parts,
                                          point):
        gen0, rows0, _logical0 = _snapshot(shard_dir)
        with FaultInjector(crash_at=point), \
                pytest.raises(InjectedCrash):
            append_shard(shard_dir, parts[3], target_chunk_rows=64)
        generation, rows, _ = _snapshot(shard_dir)
        if point == "manifest_published":
            assert generation == gen0 + 1
            assert rows == sorted(rows0 + parts[3].to_rows())
        else:
            assert generation == gen0 and rows == rows0
        _assert_no_partial_state(shard_dir)

    def test_lost_append_retries_after_gc(self, shard_dir, parts):
        """A crash after the shard write leaves an orphan file holding
        the next shard name; GC frees the name and the retry lands."""
        gen0, rows0, _ = _snapshot(shard_dir)
        with FaultInjector(crash_at="manifest_replace"), \
                pytest.raises(InjectedCrash):
            append_shard(shard_dir, parts[3], target_chunk_rows=64)
        # The orphan blocks a blind retry (exclusive create)...
        with pytest.raises(StorageError, match="already exists"):
            append_shard(shard_dir, parts[3], target_chunk_rows=64)
        # ...until the GC reaps it (it is in no manifest, pinned by
        # no reader).
        assert gc_shards(shard_dir)
        append_shard(shard_dir, parts[3], target_chunk_rows=64)
        generation, rows, _ = _snapshot(shard_dir)
        assert generation == gen0 + 1
        assert rows == sorted(rows0 + parts[3].to_rows())


class TestRandomizedInterleavings:
    """Random append/compact/query interleavings: the sharded table
    must stay digest-identical to the never-compacted truth at every
    step, on every backend."""

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_digest_parity_across_seeds(self, tmp_path, seed):
        rng = random.Random(seed)
        full = generate(GameConfig(n_users=18, seed=seed))
        batches = _user_batches(full, 6)
        d = tmp_path / "G"
        accumulated = None
        pending = list(batches)
        append_shard(d, pending.pop(0), target_chunk_rows=64)
        accumulated = batches[0]
        while pending:
            op = rng.choice(("append", "compact", "compact_small"))
            if op == "append":
                batch = pending.pop(0)
                append_shard(d, batch, target_chunk_rows=64)
                accumulated = accumulated.concat(batch)
            elif op == "compact":
                compact(d)
            else:
                compact(d, small_rows=rng.choice((8, 32, 128)))
            table = load_sharded(d)
            try:
                assert sorted(table.decompress().to_rows()) \
                    == sorted(accumulated.to_rows())
                # The manifest's logical digests must agree with the
                # rows actually on disk (self-validating snapshots).
                assert combine_logical(
                    e["logical_digest"]
                    for e in table.manifest["shards"]) \
                    == logical_digest_of(accumulated)
            finally:
                table.release()

        # Final state: all three backends agree with a never-compacted
        # single-file table, COHORTSIZE / UserCount() included.
        single = tmp_path / "G.cohana"
        save(compress(accumulated.sorted_by_primary_key(),
                      target_chunk_rows=64), single)
        sharded_engine, single_engine = CohanaEngine(), CohanaEngine()
        sharded_engine.load_table("G", d)
        single_engine.load_table("G", single)
        expected = hashlib.sha256(
            repr(single_engine.query(QUERY).rows).encode()).hexdigest()
        for backend in ("serial", "threads", "processes"):
            # An empty partial cache: every backend scans every chunk.
            sharded_engine.partials.clear()
            result, stats = sharded_engine.query_with_stats(
                QUERY, backend=backend, jobs=2)
            assert stats.chunks_total == sharded_engine.table("G").n_chunks
            got = hashlib.sha256(repr(result.rows).encode()).hexdigest()
            assert got == expected, f"backend {backend} diverged"


class TestConcurrentStress:
    def test_reader_appender_compactor_threads(self, tmp_path):
        """Readers load snapshots while an appender grows the table
        and a compactor keeps rewriting it. Every snapshot any reader
        observes must be one of the generations the appender actually
        produced — its combined logical digest must equal a prefix of
        the appended batches, never a mix, never a torn state."""
        full = generate(GameConfig(n_users=24, seed=23))
        batches = _user_batches(full, 8)
        d = tmp_path / "G"
        append_shard(d, batches[0], target_chunk_rows=64)

        prefix = batches[0]
        valid_logicals = {logical_digest_of(prefix)}
        for batch in batches[1:]:
            prefix = prefix.concat(batch)
            valid_logicals.add(logical_digest_of(prefix))

        errors = []
        done = threading.Event()

        def appender():
            try:
                for batch in batches[1:]:
                    append_shard(d, batch, target_chunk_rows=64)
            except Exception as exc:  # pragma: no cover - must not fire
                errors.append(("appender", exc))
            finally:
                done.set()

        def compactor():
            try:
                while not done.is_set():
                    compact(d)
            except Exception as exc:  # pragma: no cover - must not fire
                errors.append(("compactor", exc))

        def reader():
            try:
                while not done.is_set():
                    table = load_sharded(d)
                    try:
                        logical = combine_logical(
                            e["logical_digest"]
                            for e in table.manifest["shards"])
                        assert logical in valid_logicals, \
                            "reader saw a state no publish produced"
                        # Decompress through the pinned snapshot: its
                        # files must stay readable even if a compactor
                        # superseded them meanwhile.
                        assert logical_digest_of(
                            table.decompress()) == logical
                    finally:
                        table.release()
            except Exception as exc:  # pragma: no cover - must not fire
                errors.append(("reader", exc))

        threads = [threading.Thread(target=appender)]
        threads += [threading.Thread(target=compactor)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors

        # Quiesced: one final compaction, the full dataset, parity.
        compact(d)
        table = load_sharded(d)
        try:
            rows = sorted(table.decompress().to_rows())
        finally:
            table.release()
        assert rows == sorted(prefix.to_rows())
        gc_shards(d)
        manifest = read_manifest(d)
        on_disk = {p.name for p in d.glob("shard-*.cohana")}
        assert on_disk == {e["path"] for e in manifest["shards"]}
        assert not (d / (MANIFEST_NAME + ".tmp")).exists()
