"""Shard compaction, retention, and garbage collection.

Append-only ingestion (:mod:`repro.storage.sharded`) wins O(new-data)
writes but accumulates small shards forever, and a many-shard table
pays per-shard planning, verification, and mmap overhead on every
query. The **compactor** here merges small shards back into one large
v4 file; **retention** drops whole shards whose time range has aged
out; the **garbage collector** deletes shard files no manifest — and
no live reader — references anymore.

All three follow one publish discipline, the generation scheme the
manifest carries:

1. new shard files are written next to the old ones (exclusive
   create + fsync, :func:`repro.storage.sharded.write_shard`) — never
   in place;
2. the new manifest is published at ``generation + 1`` by
   :func:`repro.storage.sharded.publish_manifest` — fsynced temp
   file, a single atomic ``os.replace``, directory fsync;
3. superseded shard files are unlinked only by the GC, which skips
   files pinned by live readers (:func:`pinned_shard_files`).

A crash at any instant therefore leaves the directory loadable at
exactly the *previous* generation: the old manifest is untouched until
the one ``os.replace``, and files it references are never deleted
before the replace lands. The fault-injection suite
(``tests/test_crash_consistency.py``) kills the process at every
:func:`crash_point` to hold the publish path to that contract.

Compaction changes every physical byte it touches — shard digests,
composed table digest — but not the table's *rows*, so the manifest's
per-shard logical digests combine to the same table-wide logical
digest before and after. The engine keys its version token on that
logical digest, which is how service result caches survive a
compaction. The engine's partials and view partials are keyed on
physical shard digests and re-key: a merged shard's entry records its
sources (``merged_from``), and a read composes its partials from
theirs instead of rescanning it where that is exact.

In-process writers (appender, compactor, retention, GC) serialize on
:func:`repro.storage.sharded.publish_lock`; run one compactor per
table across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import StorageError
from repro.storage.sharded import (
    MANIFEST_NAME,
    _open_shard,
    combine_logical,
    pinned_shard_files,
    publish_lock,
    publish_manifest,
    read_manifest,
    write_shard,
)
from repro.storage.writer import compress


@dataclass(frozen=True)
class CompactionResult:
    """What one :func:`compact` call did."""

    directory: str
    #: Manifest generation after the call (unchanged on a no-op).
    generation: int
    #: Shard file names merged away (empty on a no-op).
    merged: tuple[str, ...]
    #: The replacement shard's file name, or ``None`` on a no-op.
    new_shard: str | None
    #: Rows in the replacement shard.
    n_rows: int
    #: Files the post-publish GC unlinked (old shards stay on disk
    #: while pinned; a later :func:`gc_shards` reaps them).
    gc_removed: tuple[str, ...]

    @property
    def compacted(self) -> bool:
        return self.new_shard is not None


@dataclass(frozen=True)
class RetentionResult:
    """What one :func:`prune_retention` call did."""

    directory: str
    generation: int
    #: Shard file names dropped from the manifest.
    removed: tuple[str, ...]
    #: Shards still in the manifest after pruning.
    kept: int
    gc_removed: tuple[str, ...]

    @property
    def pruned(self) -> bool:
        return bool(self.removed)


def select_small_shards(entries: list[dict],
                        small_rows: int | None) -> list[int]:
    """Indices of the manifest entries one compaction would merge:
    every shard at or under the row threshold (all shards when
    ``small_rows`` is None). Fewer than two candidates means there is
    nothing to merge."""
    if small_rows is None:
        return list(range(len(entries)))
    return [i for i, entry in enumerate(entries)
            if entry["n_rows"] <= small_rows]


def compact(directory: str | Path, *, small_rows: int | None = None,
            target_chunk_rows: int | None = None,
            gc: bool = True) -> CompactionResult:
    """Merge small shards of the table at ``directory`` into one.

    Reads the manifest and opens only the selected shards (all of them,
    or only those at or under ``small_rows`` rows), each verified
    against its entry as a load would; the other shards are not
    touched. Their rows are re-compressed as a single new shard file,
    and a manifest at ``generation + 1`` lists the survivors plus the
    merged shard. Readers that opened the table before the publish keep
    their pinned generation's files; with ``gc=True`` the unpinned
    leftovers are unlinked afterwards.

    When every selected entry records a ``user_range`` and no two
    ranges meet, the shards are concatenated in range order, otherwise
    in manifest order; :func:`~repro.storage.writer.compress` sorts the
    concatenation by primary key either way.

    The merged entry's logical digest is the sum
    (:func:`~repro.storage.sharded.combine_logical`) of the merged
    entries' digests — the same rows, so the table-wide logical digest,
    and with it the engine's version token, survives the rewrite — and
    its ``merged_from`` lists ``[content_digest, logical_digest]`` of
    each source in concatenation order, from which a read composes the
    merged shard's partials (:class:`~repro.cohana.pipeline.ChunkScheduler`).

    Returns a no-op :class:`CompactionResult` when fewer than two
    shards qualify.
    """
    directory = Path(directory)
    with publish_lock(directory):
        if gc:
            # Reap leftovers of a previously crashed publish first, so
            # the shard name this run allocates is free again.
            gc_shards(directory)
        # The publish lock is held, so no in-process GC can delete a
        # shard the manifest names: nothing here needs a pin.
        manifest = read_manifest(directory)
        entries = manifest["shards"]
        picked = select_small_shards(entries, small_rows)
        if len(picked) < 2:
            return CompactionResult(
                directory=str(directory),
                generation=manifest["generation"],
                merged=(), new_shard=None, n_rows=0, gc_removed=())
        sources = [entries[i] for i in picked]
        if _disjoint_user_ranges(sources):
            sources.sort(key=lambda entry: entry["user_range"])
        merged = _open_shard(directory, sources[0], {}).decompress()
        for entry in sources[1:]:
            merged = merged.concat(
                _open_shard(directory, entry, {}).decompress())
        chunk_rows = target_chunk_rows or manifest["target_chunk_rows"]
        compressed = compress(merged, target_chunk_rows=chunk_rows)
        new_entry = write_shard(
            directory, manifest, compressed,
            combine_logical(entry["logical_digest"] for entry in sources))
        new_entry["merged_from"] = [
            [entry["content_digest"], entry["logical_digest"]]
            for entry in sources]
        picked_set = set(picked)
        manifest["shards"] = [entry for i, entry in enumerate(entries)
                              if i not in picked_set] + [new_entry]
        publish_manifest(directory, manifest)
        removed = tuple(gc_shards(directory)) if gc else ()
    return CompactionResult(
        directory=str(directory), generation=manifest["generation"],
        merged=tuple(entries[i]["path"] for i in picked),
        new_shard=new_entry["path"], n_rows=compressed.n_rows,
        gc_removed=removed)


def _disjoint_user_ranges(entries: list[dict]) -> bool:
    """True when every entry records a ``user_range`` and no two of
    them share a user id, bounds included."""
    if not all("user_range" in entry for entry in entries):
        return False
    ranges = sorted(entry["user_range"] for entry in entries)
    return all(high < low for (_, high), (low, _) in zip(ranges,
                                                          ranges[1:]))


def prune_retention(directory: str | Path, *, older_than: int,
                    gc: bool = True) -> RetentionResult:
    """Drop whole shards whose entire time range predates
    ``older_than`` (exclusive: a shard survives if any of its tuples
    is at or after the cutoff).

    Retention is shard-granular by design: dropping a whole shard
    cannot split a user across shards (the append invariant holds for
    the survivors) and needs no rewrite. It reads only the manifest,
    which records every shard's time range, and opens no shard.

    Raises:
        StorageError: when the cutoff would remove every shard —
            an empty manifest is unloadable; delete the directory
            instead if that is really intended.
    """
    directory = Path(directory)
    with publish_lock(directory):
        manifest = read_manifest(directory)
        dropped, kept = [], []
        for entry in manifest["shards"]:
            if entry["time_range"][1] < older_than:
                dropped.append(entry)
            else:
                kept.append(entry)
        if not dropped:
            return RetentionResult(
                directory=str(directory),
                generation=manifest["generation"],
                removed=(), kept=len(kept), gc_removed=())
        if not kept:
            raise StorageError(
                f"retention cutoff {older_than} would remove every "
                f"shard of {directory}; refusing to empty the "
                f"table — delete the directory to drop it")
        manifest["shards"] = kept
        publish_manifest(directory, manifest)
        removed = tuple(gc_shards(directory)) if gc else ()
    return RetentionResult(
        directory=str(directory), generation=manifest["generation"],
        removed=tuple(entry["path"] for entry in dropped),
        kept=len(kept), gc_removed=removed)


def gc_shards(directory: str | Path) -> list[str]:
    """Unlink shard files no longer referenced and not pinned.

    A file is garbage when it is absent from the *current* manifest's
    shard list and no live in-process reader has it pinned. Stray
    ``MANIFEST.json.tmp`` files (a publish that crashed before its
    ``os.replace``) are reaped too. Returns the deleted file names.

    Safe under concurrent readers: a reader that opened before the
    last publish holds pins, so its files survive; on POSIX even a
    just-unpinned mmap keeps already-open files readable. Runs under
    the table's publish lock so an in-flight publish's freshly written
    shard is never mistaken for garbage.
    """
    directory = Path(directory)
    removed: list[str] = []
    with publish_lock(directory):
        manifest = read_manifest(directory)
        live = {entry["path"] for entry in manifest["shards"]}
        pinned = pinned_shard_files(directory)
        for path in sorted(directory.glob("shard-*.cohana")):
            if path.name in live or path.name in pinned:
                continue
            path.unlink()
            removed.append(path.name)
        tmp = directory / (MANIFEST_NAME + ".tmp")
        if tmp.exists():
            tmp.unlink()
            removed.append(tmp.name)
    return removed
