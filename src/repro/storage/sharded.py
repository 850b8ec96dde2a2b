"""Sharded multi-file tables with append-only ingestion.

A table that grows as users act cannot live in one immutable
``.cohana`` file: every new batch of activity would force a full
rewrite of bytes that did not change, and the content digest flipping
wholesale would cold-start every cache keyed on it. A **sharded table**
is instead a *directory*::

    GameActions/
        MANIFEST.json          <- shard list: path, rows, chunks, digest
        shard-000001.cohana    <- ordinary .cohana files (format v4)
        shard-000002.cohana
        ...

Appending writes one *new* shard file and atomically replaces the
manifest (write-temp + ``os.replace``); existing shard bytes are never
touched, so readers holding the old manifest keep a consistent view
and the cost of ingestion is O(new data).

Invariant (the price of exactness): **all tuples of a user live in one
shard** — the shard-level restatement of COHANA's chunk invariant
(Section 4.1), and the reason per-shard partial aggregates (including
cohort sizes and distinct-user counts) merge exactly. The append path
enforces it by intersecting the incoming user set with every existing
shard's user dictionary and refusing overlaps, so a sharded table can
never silently double-count a user.

Each shard is self-contained: it has its *own* global dictionaries and
ranges, so appending never re-encodes old shards. Global ids are
therefore **per-shard** coordinates — the execution layer plans each
shard independently (cheap: planning reads only header metadata) and
decodes cohort labels into value space before merging across shards
(:mod:`repro.cohana.pipeline`). The :class:`ShardedActivityTable`
facade still exposes merged dictionaries/ranges for schema-level
planning and EXPLAIN, but chunk payloads must always be interpreted
against the shard that owns them.

The table's ``content_digest`` is composed from the manifest's shard
digests, so the engine's version token changes exactly when the shard
set changes — an append invalidates cached results, a byte-identical
reload does not.

Compaction and retention (:mod:`repro.storage.compaction`) rewrite the
shard *set* without rewriting history. Three mechanisms here make that
safe under concurrent readers:

* every manifest publish bumps a monotone ``generation`` counter and
  goes through :func:`publish_manifest` — fsynced temp file, one
  atomic ``os.replace`` — so a reader observes exactly one generation,
  never a torn or mixed manifest;
* an open :class:`ShardedActivityTable` **pins** its generation's
  shard files in an in-process registry
  (:func:`pinned_shard_files`), and the compactor's garbage collector
  refuses to delete pinned files, so a query in flight keeps its
  snapshot while the next generation publishes underneath it;
* each manifest entry records a **logical digest** — an
  order-independent multiset hash over the shard's decoded rows —
  whose table-wide combination is invariant under compaction, letting
  service result caches survive a rewrite that changed every physical
  byte (:attr:`ShardedActivityTable.logical_digest`).

Crash points (:func:`crash_point`) are compiled into the publish path
so the fault-injection harness in ``tests/faultinject.py`` can kill
the process at every interesting instant and prove recovery.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import threading
import weakref
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.errors import StorageError
from repro.storage.dictionary import GlobalDictionary
from repro.storage.delta import GlobalRange
from repro.storage.reader import CompressedActivityTable
from repro.storage.writer import DEFAULT_CHUNK_ROWS, compress
from repro.table import ActivityTable

#: The manifest file naming the shards of a sharded table directory.
MANIFEST_NAME = "MANIFEST.json"
#: Manifest schema version (bump on incompatible layout changes).
MANIFEST_VERSION = 1
#: Shard files are named ``shard-NNNNNN.cohana``.
_SHARD_PATTERN = "shard-{:06d}.cohana"

#: Modulus of the additive multiset row hash: per-row SHA-256 values
#: are summed mod 2**256, so the result is order-independent but —
#: unlike an XOR fold — duplicate rows do not cancel out.
LOGICAL_MOD = 1 << 256

# --------------------------------------------------------------------
# Crash points and patchable OS calls (fault-injection seams)
# --------------------------------------------------------------------
#
# The publish path routes its dangerous syscalls through module-level
# indirections and announces each milestone via crash_point(), so the
# test harness (tests/faultinject.py) can simulate a power cut at any
# instant — including *during* the os.replace — without subprocesses.

#: Patchable aliases: the fault harness swaps these to tear writes or
#: abort mid-publish; production never rebinds them.
_os_replace = os.replace
_os_fsync = os.fsync

_CRASH_HOOK = None

#: Every crash point the publish/compaction path announces, in the
#: order a successful run fires them. The crash-consistency suite
#: parameterizes over this list, so adding a point here automatically
#: grows the test matrix.
CRASH_POINTS = (
    "shard_written",
    "manifest_tmp_written",
    "manifest_replace",
    "manifest_published",
)


def set_crash_hook(hook) -> None:
    """Install ``hook(name, path)`` to be called at every crash point
    (``None`` removes it). Test-only seam: the hook may raise to
    simulate a crash at that instant; production code never installs
    one, so the call compiles down to a dict lookup and a branch."""
    global _CRASH_HOOK
    _CRASH_HOOK = hook


def crash_point(name: str, path: Path | None = None) -> None:
    """Announce a publish-path milestone to the fault harness."""
    hook = _CRASH_HOOK
    if hook is not None:
        hook(name, path)


def _fsync_file(f) -> None:
    """Flush + fsync an open file object through the patchable seam."""
    f.flush()
    _os_fsync(f.fileno())


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory, making a just-published
    rename durable. Some platforms refuse O_RDONLY fsync on
    directories; losing durability there degrades to pre-crash state,
    which the recovery contract already tolerates."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        _os_fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# --------------------------------------------------------------------
# Logical digests: content identity that survives re-sharding
# --------------------------------------------------------------------

def logical_digest_of(table: ActivityTable) -> str:
    """Order-independent multiset hash of a table's decoded rows.

    Each row hashes independently (SHA-256 of its ``repr`` as a tuple
    in schema column order) and the per-row hashes are *summed* mod
    2**256 — so any re-partitioning or re-ordering of the same rows
    yields the same digest, while adding, dropping, or editing a row
    changes it. This is the identity that survives compaction.
    """
    total = 0
    for row in table.to_rows():
        digest = hashlib.sha256(repr(row).encode("utf-8")).digest()
        total = (total + int.from_bytes(digest, "big")) % LOGICAL_MOD
    return format(total, "064x")


def combine_logical(parts: Iterable[str]) -> str:
    """Combine per-shard logical digests into the table-wide one.

    Addition mod 2**256 is associative and commutative, so combining
    shard digests equals hashing all rows in one pass — the property
    that makes the combined digest invariant under compaction.
    """
    total = 0
    for part in parts:
        total = (total + int(part, 16)) % LOGICAL_MOD
    return format(total, "064x")


# --------------------------------------------------------------------
# Generation pinning: snapshot isolation for in-flight readers
# --------------------------------------------------------------------
#
# Pins are in-process: the registry answers "which shard files may a
# live reader in THIS process still touch?" and the GC consults it
# before unlinking. (On POSIX an mmap keeps an unlinked file readable
# anyway; the registry makes the guarantee explicit, portable, and
# testable.) Keyed by resolved directory so relative and absolute
# spellings of one table share pins.

_PIN_LOCK = threading.Lock()
_PIN_SEQ = 0
#: token -> (resolved directory, generation, frozenset of shard names)
_PINS: dict[int, tuple[str, int, frozenset[str]]] = {}


def _pin_generation(directory: str | Path, generation: int,
                    shard_names: Iterable[str]) -> int:
    """Register a reader's snapshot; returns a token for release."""
    global _PIN_SEQ
    key = str(Path(directory).resolve())
    with _PIN_LOCK:
        _PIN_SEQ += 1
        token = _PIN_SEQ
        _PINS[token] = (key, generation, frozenset(shard_names))
    return token


def _release_pin(token: int) -> None:
    with _PIN_LOCK:
        _PINS.pop(token, None)


def pinned_shard_files(directory: str | Path) -> set[str]:
    """Shard file names some live reader of ``directory`` has pinned.
    The compactor's GC must never unlink any of these."""
    key = str(Path(directory).resolve())
    with _PIN_LOCK:
        return {name for d, _gen, names in _PINS.values()
                if d == key for name in names}


def pinned_generations(directory: str | Path) -> set[int]:
    """Manifest generations currently pinned by live readers."""
    key = str(Path(directory).resolve())
    with _PIN_LOCK:
        return {gen for d, gen, _names in _PINS.values() if d == key}


_PUBLISH_LOCKS_LOCK = threading.Lock()
_PUBLISH_LOCKS: dict[str, threading.RLock] = {}


def publish_lock(directory: str | Path) -> threading.RLock:
    """The per-directory re-entrant lock every manifest writer —
    append, compaction, retention, GC — holds across its whole
    read-modify-publish cycle, so in-process writers serialize instead
    of losing each other's updates. Writers in *other* processes are
    still guarded against silent data loss by the exclusive shard
    create; run one compactor per table across processes."""
    key = str(Path(directory).resolve())
    with _PUBLISH_LOCKS_LOCK:
        lock = _PUBLISH_LOCKS.get(key)
        if lock is None:
            lock = _PUBLISH_LOCKS[key] = threading.RLock()
        return lock


# --------------------------------------------------------------------
# Shard payload verification, memoized per (path, mtime, size)
# --------------------------------------------------------------------
#
# Re-hashing every shard's payload on every open would make reopening
# a many-shard table O(total bytes). The digest of an immutable shard
# file cannot change while its (mtime_ns, size) stat signature holds,
# so verification results are memoized on that signature: reopens are
# O(shards) stat calls, while any rewrite of the bytes — corruption,
# swap-under-manifest — changes the signature and re-verifies.

_VERIFY_LOCK = threading.Lock()
_VERIFY_CACHE: OrderedDict[tuple[str, int, int], str] = OrderedDict()
_VERIFY_CACHE_ENTRIES = 4096

#: Observable counters: ``hashed`` counts full payload hashes,
#: ``memoized`` counts opens satisfied by the stat-signature cache.
SHARD_VERIFY_STATS = {"hashed": 0, "memoized": 0}


def clear_shard_verify_cache() -> None:
    """Drop memoized verifications and reset the counters (tests)."""
    with _VERIFY_LOCK:
        _VERIFY_CACHE.clear()
        SHARD_VERIFY_STATS["hashed"] = 0
        SHARD_VERIFY_STATS["memoized"] = 0


def _hash_shard_payload(path: Path) -> str:
    """The digest a shard file's bytes actually hash to (the quantity
    its header merely *claims*): v4+ files hash everything after the
    header digest field; pre-digest files hash the whole file, both
    matching what the writer stamped."""
    from repro.storage.format import DIGEST_VERSION, MAGIC

    header = len(MAGIC) + 2
    hasher = hashlib.sha256()
    with open(path, "rb") as f:
        prefix = f.read(header)
        if len(prefix) < header or prefix[:len(MAGIC)] != MAGIC:
            raise StorageError(f"not a cohana file: {path}")
        version = int.from_bytes(prefix[len(MAGIC):header], "little")
        if version >= DIGEST_VERSION:
            f.read(32)  # skip the stored digest: it is the claim
        else:
            hasher.update(prefix)
        while True:
            block = f.read(1 << 20)
            if not block:
                break
            hasher.update(block)
    return hasher.hexdigest()


def verify_shard_file(path: Path, expected: str) -> None:
    """Check that a shard file's payload hashes to the manifest's
    digest, memoized per (path, mtime_ns, size) stat signature.

    Raises:
        StorageError: when the payload does not hash to ``expected`` —
            on-disk corruption, or a shard swapped under the manifest.
    """
    st = path.stat()
    key = (str(path), st.st_mtime_ns, st.st_size)
    with _VERIFY_LOCK:
        actual = _VERIFY_CACHE.get(key)
        if actual is not None:
            _VERIFY_CACHE.move_to_end(key)
            SHARD_VERIFY_STATS["memoized"] += 1
    if actual is None:
        actual = _hash_shard_payload(path)
        with _VERIFY_LOCK:
            SHARD_VERIFY_STATS["hashed"] += 1
            _VERIFY_CACHE[key] = actual
            while len(_VERIFY_CACHE) > _VERIFY_CACHE_ENTRIES:
                _VERIFY_CACHE.popitem(last=False)
    if actual != expected:
        raise StorageError(
            f"shard digest mismatch for {path}: payload hashes to "
            f"{actual[:12]}..., manifest says {expected[:12]}... "
            f"(on-disk corruption, or a shard swapped under the "
            f"manifest)")


def is_sharded_path(path: str | Path) -> bool:
    """True when ``path`` is a sharded table directory (or its
    manifest file) rather than a single ``.cohana`` file."""
    path = Path(path)
    if path.name == MANIFEST_NAME:
        return path.is_file()
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def compose_digest(shard_digests: Sequence[str]) -> str:
    """One content digest for the whole table, derived from the
    ordered shard digests: it changes iff the shard set changes."""
    payload = "\n".join(shard_digests).encode("utf-8")
    return hashlib.sha256(b"cohana-shards\n" + payload).hexdigest()


def _is_int(value) -> bool:
    """A JSON integer (``true`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    """A non-negative JSON integer."""
    return _is_int(value) and value >= 0


def _is_hex_digest(value) -> bool:
    """A SHA-256-sized lowercase hex string, as the writer stamps."""
    return (isinstance(value, str) and len(value) == 64
            and all(ch in "0123456789abcdef" for ch in value))


def _is_time_range(value) -> bool:
    """``[low, high]``: two JSON integers with ``low <= high``."""
    return (isinstance(value, list) and len(value) == 2
            and all(_is_int(v) for v in value) and value[0] <= value[1])


def read_manifest(directory: str | Path) -> dict:
    """Parse and structurally validate a shard manifest."""
    directory = Path(directory)
    if directory.name == MANIFEST_NAME:
        directory = directory.parent
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise StorageError(
            f"not a sharded table: {manifest_path} missing") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageError(
            f"corrupt shard manifest {manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise StorageError(f"{manifest_path}: manifest is not a JSON "
                           f"object")
    if manifest.get("format") != "cohana-sharded":
        raise StorageError(f"{manifest_path}: not a cohana shard "
                           f"manifest (format={manifest.get('format')!r})")
    if manifest.get("version") != MANIFEST_VERSION:
        raise StorageError(
            f"{manifest_path}: unsupported manifest version "
            f"{manifest.get('version')!r}")
    shards = manifest.get("shards")
    if not isinstance(shards, list) or not shards:
        raise StorageError(f"{manifest_path}: manifest lists no shards")
    for entry in shards:
        if not isinstance(entry, dict):
            raise StorageError(f"{manifest_path}: shard entry "
                               f"{entry!r} is not a JSON object")
        missing = {"path", "n_rows", "n_chunks",
                   "content_digest"} - set(entry)
        if missing:
            raise StorageError(f"{manifest_path}: shard entry missing "
                               f"{sorted(missing)}")
        # The manifest is outside input: a shard path may only name a
        # file inside the table directory, never escape it.
        name = entry["path"]
        if (not isinstance(name, str) or name in ("", "..")
                or Path(name).name != name):
            raise StorageError(f"{manifest_path}: shard path {name!r} "
                               f"is not a bare file name")
        if not isinstance(entry["content_digest"], str):
            raise StorageError(
                f"{manifest_path}: shard {name} content_digest "
                f"{entry['content_digest']!r} is not a string")
        for key in ("n_rows", "n_chunks"):
            if not _is_count(entry[key]):
                raise StorageError(f"{manifest_path}: shard {name} bad "
                                   f"{key} {entry[key]!r}")
        # Optional fields are read lazily (version token, retention),
        # so a bad one must fail here, not at first use.
        for key, valid in (("logical_digest", _is_hex_digest),
                           ("time_range", _is_time_range)):
            value = entry.get(key)
            if value is not None and not valid(value):
                raise StorageError(f"{manifest_path}: shard {name} bad "
                                   f"{key} {value!r}")
    # Manifests written before the compaction era carry no generation;
    # normalize to 0 so the first post-upgrade publish bumps them to 1
    # and every caller can rely on the key existing.
    generation = manifest.setdefault("generation", 0)
    if not _is_count(generation):
        raise StorageError(f"{manifest_path}: bad generation "
                           f"{generation!r}")
    return manifest


def publish_manifest(directory: Path, manifest: dict) -> None:
    """Durably and atomically replace the manifest.

    The WAL-style publish discipline: write the full new manifest to a
    temp file, fsync it, then a single ``os.replace`` onto the real
    name, then fsync the directory. A reader — or a post-crash reload —
    sees either the old shard list or the new one in its entirety,
    never a torn file; the crash-consistency suite kills the process at
    each :func:`crash_point` here to prove it.
    """
    target = directory / MANIFEST_NAME
    tmp = directory / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(json.dumps(manifest, indent=2) + "\n")
        _fsync_file(f)
    crash_point("manifest_tmp_written", tmp)
    crash_point("manifest_replace", target)
    _os_replace(tmp, target)
    _fsync_dir(directory)
    crash_point("manifest_published", target)


class ShardChunkList(Sequence):
    """A lazy concatenated view over the shards' chunk lists.

    Indexing is global: chunk ``i`` belongs to the shard whose chunk
    range covers ``i``; the chunk object itself is whatever the shard's
    (typically memory-mapped, lazily parsed) chunk list yields — a
    chunk is deserialized only when first touched, exactly as in the
    single-file case.
    """

    def __init__(self, shards: Sequence[CompressedActivityTable]):
        self._shards = shards
        self._starts: list[int] = []
        total = 0
        for shard in shards:
            self._starts.append(total)
            total += shard.n_chunks
        self._total = total

    def locate(self, index: int) -> tuple[int, int]:
        """Map a global chunk index to ``(shard_index, local_index)``."""
        if index < 0:
            index += self._total
        if not 0 <= index < self._total:
            raise IndexError(f"chunk index {index} out of range")
        shard_idx = bisect.bisect_right(self._starts, index) - 1
        return shard_idx, index - self._starts[shard_idx]

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        shard_idx, local = self.locate(index)
        return self._shards[shard_idx].chunks[local]

    def __iter__(self):
        for shard in self._shards:
            yield from shard.chunks

    def __repr__(self) -> str:
        return (f"ShardChunkList({self._total} chunks over "
                f"{len(self._shards)} shards)")


def _merged_dictionaries(shards) -> dict[str, GlobalDictionary]:
    """Table-wide dictionaries: the sorted union of the shards' values.

    Only used for schema-level planning (EXPLAIN, literal lookups) and
    value decoding in *merged* space — chunk payloads stay in their
    shard's id space and must never be decoded against these.
    """
    merged: dict[str, GlobalDictionary] = {}
    names = set()
    for shard in shards:
        names.update(shard.global_dicts)
    for name in names:
        values: set[str] = set()
        for shard in shards:
            gdict = shard.global_dicts.get(name)
            if gdict is not None:
                values.update(gdict.values)
        merged[name] = GlobalDictionary(tuple(sorted(values)))
    return merged


def _merged_ranges(shards) -> dict[str, GlobalRange]:
    merged: dict[str, GlobalRange] = {}
    for shard in shards:
        for name, rng in shard.global_ranges.items():
            seen = merged.get(name)
            if seen is None:
                merged[name] = rng
            else:
                merged[name] = GlobalRange(
                    min(seen.min_value, rng.min_value),
                    max(seen.max_value, rng.max_value))
    return merged


class ShardedActivityTable(CompressedActivityTable):
    """A directory of shard files behaving like one compressed table.

    ``chunks`` is the lazy concatenation of the shards' chunk lists;
    ``global_dicts`` / ``global_ranges`` are merged views for
    schema-level planning. Execution treats shards as the fan-out unit:
    the scheduler plans each shard against its own dictionaries and
    merges decoded partials (see :mod:`repro.cohana.pipeline`), so
    per-shard global ids never leak across shard boundaries.
    """

    def __init__(self, shards: list[CompressedActivityTable],
                 manifest: dict, directory: str | Path):
        if not shards:
            raise StorageError("a sharded table needs at least one shard")
        schema = shards[0].schema
        for i, shard in enumerate(shards[1:], start=1):
            if shard.schema != schema:
                raise StorageError(
                    f"shard {i} schema differs from shard 0 "
                    f"(all shards of a table share one schema)")
        digests = [entry["content_digest"]
                   for entry in manifest["shards"]]
        super().__init__(
            schema=schema,
            global_dicts=_merged_dictionaries(shards),
            global_ranges=_merged_ranges(shards),
            chunks=ShardChunkList(shards),
            target_chunk_rows=shards[0].target_chunk_rows,
            source_path=str(directory),
            content_digest=compose_digest(digests),
        )
        self.shards = shards
        self.manifest = manifest
        self.shard_digests = digests
        #: Manifest generation this table snapshot was opened at.
        self.generation = manifest.get("generation", 0)
        # Pin this generation's shard files so the compactor's GC
        # leaves them on disk while this object (and any query running
        # over it) is alive. The weakref finalizer guarantees release
        # even when nobody calls release() — dropping the last
        # reference unpins.
        token = _pin_generation(
            directory, self.generation,
            (entry["path"] for entry in manifest["shards"]))
        self._pin_finalizer = weakref.finalize(self, _release_pin, token)

    def release(self) -> None:
        """Explicitly unpin this snapshot's shard files (idempotent).
        After release the GC may delete superseded shard files; the
        table must not be queried again."""
        self._pin_finalizer()

    @property
    def is_sharded(self) -> bool:
        return True

    @property
    def logical_digest(self) -> str | None:
        """Content identity that survives compaction: the combined
        multiset row hash of all shards, wrapped in one SHA-256 so it
        is the same shape as a physical digest. ``None`` when any
        manifest entry predates logical digests (pre-compaction
        manifests) — callers then fall back to the physical
        ``content_digest``."""
        parts = [entry.get("logical_digest")
                 for entry in self.manifest["shards"]]
        if any(part is None for part in parts):
            return None
        combined = combine_logical(parts)
        return hashlib.sha256(
            b"cohana-logical\n" + combined.encode("ascii")).hexdigest()

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, chunk_index: int) -> tuple[int, int]:
        """Map a global chunk index to ``(shard_index, local_index)``."""
        return self.chunks.locate(chunk_index)

    def decode_chunk(self, chunk) -> ActivityTable:
        """Chunk payloads are encoded in their *shard's* id space, so
        decoding against the merged dictionaries would produce garbage
        values — decode via the owning shard instead."""
        raise StorageError(
            "decode chunks of a sharded table via the owning shard "
            "(table.shards[i].decode_chunk), not the merged facade")

    def decompress(self) -> ActivityTable:
        """Materialize the whole table, shard by shard."""
        table = self.shards[0].decompress()
        for shard in self.shards[1:]:
            table = table.concat(shard.decompress())
        return table

    def __repr__(self) -> str:
        return (f"ShardedActivityTable({self.n_rows} rows, "
                f"{self.n_users} users, {self.n_chunks} chunks, "
                f"{self.n_shards} shards)")


def load_sharded(path: str | Path) -> ShardedActivityTable:
    """Open a sharded table directory (or its manifest file).

    Every shard is opened through :func:`repro.storage.format.load`
    (memory-mapped and lazy for current-format files) and its payload
    is verified against the manifest digest via
    :func:`verify_shard_file` — a real hash of the bytes, not just the
    header's claim, so corruption or a shard swapped under an
    unchanged manifest fails loudly instead of serving bytes the
    version token does not describe. Verification is memoized on the
    file's (mtime, size) stat signature, so reopening a many-shard
    table costs O(shards) stats rather than O(total bytes).

    The returned table pins its manifest generation until released
    (or garbage-collected), so a compaction publishing the next
    generation never deletes shard files out from under it. The pin
    registers only once every shard is open, so there is a window in
    which a concurrent compact-then-GC can delete a shard this loader
    was about to read. That is not corruption — it can only mean a
    newer generation was published meanwhile — so the loader retries
    against the fresh manifest, and after a few optimistic rounds
    takes the directory's publish lock (no in-process GC can run
    under it) for a final, guaranteed attempt.
    """
    directory = Path(path)
    if directory.name == MANIFEST_NAME:
        directory = directory.parent
    for _attempt in range(_LOAD_RETRIES):
        try:
            return _load_sharded_once(directory)
        except _ShardVanished:
            continue
    with publish_lock(directory):
        try:
            return _load_sharded_once(directory)
        except _ShardVanished as exc:
            # No concurrent publish can explain this under the lock:
            # the current manifest genuinely points at a missing file.
            raise StorageError(str(exc)) from None


#: Optimistic reload attempts before load_sharded falls back to the
#: publish lock. Each retry can only fail if another generation was
#: published (and GC'd) inside the microsecond load window.
_LOAD_RETRIES = 4


class _ShardVanished(Exception):
    """A manifest-listed shard file disappeared mid-load (a concurrent
    publish + GC won the race) — internal retry signal."""


def _load_sharded_once(directory: Path) -> ShardedActivityTable:
    from repro.storage.format import load as load_file

    manifest = read_manifest(directory)
    shards = []
    for entry in manifest["shards"]:
        shard_path = directory / entry["path"]
        if not shard_path.is_file():
            raise _ShardVanished(f"shard file missing: {shard_path}")
        try:
            verify_shard_file(shard_path, entry["content_digest"])
            shard = load_file(shard_path)
        except FileNotFoundError:
            # Deleted between the existence check and the open — same
            # race, same retry.
            raise _ShardVanished(
                f"shard file missing: {shard_path}") from None
        if shard.content_digest != entry["content_digest"]:
            raise StorageError(
                f"shard digest mismatch for {shard_path}: manifest says "
                f"{entry['content_digest'][:12]}..., file is "
                f"{(shard.content_digest or '?')[:12]}...")
        if shard.n_chunks != entry["n_chunks"]:
            raise StorageError(
                f"shard chunk-count mismatch for {shard_path}: manifest "
                f"says {entry['n_chunks']}, file has {shard.n_chunks}")
        shards.append(shard)
    return ShardedActivityTable(shards, manifest, directory)


def _existing_users(shards) -> set[str]:
    """Every user present in the given shards (from the per-shard user
    dictionaries — header metadata only, no chunk is deserialized)."""
    users: set[str] = set()
    for shard in shards:
        gdict = shard.global_dicts.get(shard.schema.user.name)
        if gdict is not None:
            users.update(gdict.values)
    return users


def shard_entry(compressed, data: bytes, shard_name: str,
                logical: str) -> dict:
    """Build one manifest entry for a serialized shard.

    Shared by the append and compaction paths so both record the same
    metadata: the v4 header digest (the claim the loader verifies
    against the payload), the logical multiset digest, and the shard's
    time range (whole-shard retention prunes on it without opening the
    file).
    """
    from repro.storage.format import MAGIC

    # The digest readers will see in the shard's own header (format v4
    # stamps it right after magic + version), so a later mismatch can
    # only mean on-disk corruption.
    digest = data[len(MAGIC) + 2:len(MAGIC) + 2 + 32].hex()
    entry = {
        "path": shard_name,
        "n_rows": compressed.n_rows,
        "n_chunks": compressed.n_chunks,
        "n_users": compressed.n_users,
        "n_bytes": len(data),
        "content_digest": digest,
        "logical_digest": logical,
    }
    time_range = compressed.global_ranges.get(
        compressed.schema.time.name)
    if time_range is not None:
        entry["time_range"] = [time_range.min_value,
                               time_range.max_value]
    return entry


def append_shard(directory: str | Path, table: ActivityTable,
                 target_chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 ) -> dict:
    """Compress ``table`` into a new shard of the table at ``directory``.

    Creates the directory and manifest on first use. Existing shard
    bytes are never rewritten: the new shard file is written next to
    them and the manifest is atomically replaced. Returns the new
    shard's manifest entry.

    Raises:
        StorageError: when the incoming batch contains users already
            present in an existing shard (the shard invariant — all
            tuples of a user in one shard — is what keeps cohort
            aggregation exact), or when the batch is empty.
    """
    if len(table) == 0:
        raise StorageError("refusing to append an empty shard")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with publish_lock(directory):
        return _append_shard_locked(directory, table, target_chunk_rows)


def _append_shard_locked(directory: Path, table: ActivityTable,
                         target_chunk_rows: int) -> dict:
    from repro.storage.format import serialize

    if (directory / MANIFEST_NAME).is_file():
        existing = load_sharded(directory)
        try:
            if existing.schema != table.schema:
                raise StorageError(
                    "appended batch schema differs from the table's")
            overlap = _existing_users(existing.shards) \
                & set(table.distinct_users())
            if overlap:
                sample = ", ".join(sorted(overlap)[:5])
                raise StorageError(
                    f"append would split {len(overlap)} user(s) across "
                    f"shards (e.g. {sample}); a user's tuples must live "
                    f"in one shard for cohort aggregation to stay exact "
                    f"— batch ingestion by user arrival, or rebuild the "
                    f"table from the combined data")
            manifest = existing.manifest
            next_index = manifest["next_shard_index"]
        finally:
            existing.release()
    else:
        manifest = {"format": "cohana-sharded",
                    "version": MANIFEST_VERSION,
                    "generation": 0,
                    "target_chunk_rows": target_chunk_rows,
                    "next_shard_index": 1,
                    "shards": []}
        next_index = 1

    compressed = compress(table, target_chunk_rows=target_chunk_rows)
    data = serialize(compressed)
    shard_name = _SHARD_PATTERN.format(next_index)
    shard_path = directory / shard_name
    try:
        # Exclusive create: two concurrent appends that both read the
        # same manifest race for one shard name — the loser must fail
        # loudly here instead of silently overwriting the winner's
        # bytes and dropping its manifest entry.
        with open(shard_path, "xb") as f:
            f.write(data)
            _fsync_file(f)
    except FileExistsError:
        raise StorageError(
            f"shard file already exists: {shard_path} (concurrent "
            f"append, or manifest out of sync) — retry the append"
        ) from None
    crash_point("shard_written", shard_path)
    entry = shard_entry(compressed, data, shard_name,
                        logical_digest_of(table))
    manifest["shards"].append(entry)
    manifest["next_shard_index"] = next_index + 1
    manifest["generation"] = manifest.get("generation", 0) + 1
    publish_manifest(directory, manifest)
    return entry
