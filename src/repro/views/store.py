"""Persistence for materialized-view partials and definitions.

A view's cached state is a set of folded **value-space**
:class:`~repro.cohana.pipeline.ChunkPartial` objects, one per shard,
keyed ``(view fingerprint, shard content digest)``. Value-space partials
are JSON-friendly by construction: cohort labels are tuples of strings
(decoded dictionary values, formatted timestamps) and ints, and every
array — sizes, bucket labels and ages, one state per aggregate (two for
AVG) — is a JSON list of numbers. JSON — not pickle — keeps the on-disk
format inspectable and immune to code-movement breakage across versions.

:class:`DiskViewStore` lives in a ``VIEWS/`` directory next to a
sharded table's ``MANIFEST.json``::

    GameActions/
        MANIFEST.json
        shard-000001.cohana
        VIEWS/
            weekly.view.json            <- definition (rebindable text)
            partials/<fingerprint>/<shard digest>.json

Appends never touch existing shard bytes, so existing partial files
stay valid verbatim; a byte-identical reload re-derives the same
digests and finds every partial warm. The files sit behind the
engine's partial cache (``CohanaEngine.partials``): a view reads
memory first and a file only on a miss, which fills memory, and a new
partial is written to both. A view over an in-memory or single-file
table keeps its partials in that cache alone, and persists nothing.

All writes are atomic (write-temp + fsync + ``os.replace``), matching
the manifest's discipline. Each file carries a SHA-256 over its
payload's canonical JSON and the ``(fingerprint, shard digest)`` it is
filed under, so a damaged, edited or misfiled partial — one whose
numbers still parse — is a cache miss (the shard is re-scanned and the
file rewritten), never a wrong answer, and never enters memory.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.cohana.pipeline import ChunkPartial, state_array
from repro.errors import StorageError

#: Directory (inside a sharded table directory) holding view state.
VIEWS_DIRNAME = "VIEWS"
#: Partial-file schema version (bump on incompatible layout changes);
#: a file of another version reads as a miss and is rewritten.
PARTIAL_VERSION = 3
#: Definition-file schema version.
DEFINITION_VERSION = 1


def encode_partial(partial: ChunkPartial) -> dict[str, Any]:
    """A JSON-able rendering of one value-space partial."""
    return {
        "format": "cohana-view-partial",
        "version": PARTIAL_VERSION,
        "rows_scanned": partial.rows_scanned,
        "users_seen": partial.users_seen,
        "users_qualified": partial.users_qualified,
        "tuples_aggregated": partial.tuples_aggregated,
        "labels": [list(label) for label in partial.labels],
        "sizes": partial.sizes.tolist(),
        "bucket_label": partial.bucket_label.tolist(),
        "bucket_age": partial.bucket_age.tolist(),
        "states": [[part.tolist() for part in state]
                   if isinstance(state, tuple) else state.tolist()
                   for state in partial.states],
    }


def decode_partial(payload: dict[str, Any],
                   funcs: Sequence[str]) -> ChunkPartial:
    """Rebuild a :class:`ChunkPartial` from :func:`encode_partial` output.

    ``funcs`` is the query's aggregate function list in SELECT order:
    it says which states are AVG's ``(sums, counts)`` pairs, and how
    many there must be.

    Raises:
        StorageError: on a structurally invalid payload — another
            format or version, or arrays whose lengths or label
            references do not fit together. Such a partial must be a
            miss, never a wrong answer.
    """
    if not isinstance(payload, dict):
        raise StorageError("not a cohana view partial (not an object)")
    if (payload.get("format") != "cohana-view-partial"
            or payload.get("version") != PARTIAL_VERSION):
        raise StorageError("not a cohana view partial (format="
                           f"{payload.get('format')!r}, version="
                           f"{payload.get('version')!r})")
    labels = [tuple(_list(label)) for label in _list(payload["labels"])]
    if not all(isinstance(v, (str, int, float))
               for label in labels for v in label):
        raise StorageError("view partial label holds a non-scalar")
    sizes = _numbers(payload["sizes"], len(labels), "sizes")
    bucket_label = _numbers(payload["bucket_label"], None, "bucket_label")
    n_buckets = len(bucket_label)
    bucket_age = _numbers(payload["bucket_age"], n_buckets, "bucket_age")
    if (sizes.dtype != np.int64 or bucket_label.dtype != np.int64
            or bucket_age.dtype != np.int64):
        raise StorageError("view partial label arrays are not integers")
    if n_buckets and not (0 <= bucket_label.min()
                          and bucket_label.max() < len(labels)):
        raise StorageError("view partial bucket names a missing label")
    raw = _list(payload["states"])
    if len(raw) != (len(funcs) if n_buckets else 0):
        raise StorageError(
            f"view partial has {len(raw)} aggregate states for "
            f"{n_buckets} buckets, query has {len(funcs)} aggregates")
    states: list = []
    for func, state in zip(funcs, raw):
        if func == "AVG":
            sums, counts = _list(state, 2)
            states.append((_numbers(sums, n_buckets, "AVG sums"),
                           _numbers(counts, n_buckets, "AVG counts")))
        else:
            states.append(_numbers(state, n_buckets, func))
    return ChunkPartial(
        labels=labels, sizes=sizes, bucket_label=bucket_label,
        bucket_age=bucket_age, states=states,
        rows_scanned=payload.get("rows_scanned", 0),
        users_seen=payload.get("users_seen", 0),
        users_qualified=payload.get("users_qualified", 0),
        tuples_aggregated=payload.get("tuples_aggregated", 0),
    )


def _list(value: object, length: int | None = None) -> list:
    if not isinstance(value, list) or (length is not None
                                       and len(value) != length):
        raise StorageError("view partial field has the wrong shape")
    return value


def _numbers(value: object, length: int | None,
             what: str) -> np.ndarray:
    """A JSON list of numbers of ``length`` as a state array."""
    values = _list(value)
    if length is not None and len(values) != length:
        raise StorageError(f"view partial {what}: {len(values)} values, "
                           f"expected {length}")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
        raise StorageError(f"view partial {what}: not all numbers")
    try:
        return state_array(values)
    except (OverflowError, ValueError) as exc:
        raise StorageError(f"view partial {what}: {exc}") from None


def _checksum(payload: dict[str, Any], fingerprint: str,
              digest: str) -> str:
    """SHA-256 of a partial payload's canonical JSON and the key it is
    stored under, so a changed number or a file copied under another
    shard's name fails the check."""
    text = json.dumps([fingerprint, digest, payload], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DiskViewStore:
    """View state persisted inside a sharded table directory.

    Stateless wrapper over the directory: two instances pointing at the
    same path see the same store, so the engine can recreate it freely.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _partial_path(self, fingerprint: str, digest: str) -> Path:
        return self.root / "partials" / fingerprint / f"{digest}.json"

    def _definition_path(self, name: str) -> Path:
        return self.root / f"{name}.view.json"

    @staticmethod
    def _write_atomic(path: Path, payload: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(json.dumps(payload, indent=2) + "\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    # -- partials -------------------------------------------------------------

    def has_partial(self, fingerprint: str, digest: str) -> bool:
        return self._partial_path(fingerprint, digest).is_file()

    def partial_digests(self, fingerprint: str) -> set[str]:
        # A listing, not a glob: every serve of the view makes one.
        try:
            names = os.listdir(self.root / "partials" / fingerprint)
        except (FileNotFoundError, NotADirectoryError):
            return set()
        return {name[:-5] for name in names if name.endswith(".json")}

    def get_partial(self, fingerprint: str, digest: str,
                    funcs: Sequence[str]) -> ChunkPartial | None:
        """The partial stored for ``(fingerprint, digest)``, or None
        when there is none, or it is damaged, or its checksum was taken
        for another key: a miss, which the caller re-scans and
        rewrites, never a wrong answer."""
        path = self._partial_path(fingerprint, digest)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                return None
            checksum = payload.pop("checksum", None)
            if checksum != _checksum(payload, fingerprint, digest):
                return None
            return decode_partial(payload, funcs)
        except FileNotFoundError:
            return None
        except (ValueError, StorageError, KeyError, TypeError):
            # JSON and UTF-8 errors are ValueErrors.
            return None

    def put_partial(self, fingerprint: str, digest: str,
                    partial: ChunkPartial) -> None:
        payload = encode_partial(partial)
        payload["checksum"] = _checksum(payload, fingerprint, digest)
        self._write_atomic(self._partial_path(fingerprint, digest),
                           payload)

    def drop_partials(self, fingerprint: str) -> int:
        directory = self.root / "partials" / fingerprint
        if not directory.is_dir():
            return 0
        files = list(directory.glob("*.json"))
        for path in files:
            path.unlink(missing_ok=True)
        try:
            directory.rmdir()
        except OSError:  # pragma: no cover - leftover foreign files
            pass
        return len(files)

    def prune_partials(self, fingerprint: str,
                       keep_digests: set[str]) -> set[str]:
        """Delete partial files whose shard digest is no longer in
        ``keep_digests`` — shards that a compaction or retention prune
        removed from the manifest. The partial of a vanished shard can
        never be served again (no unit carries its digest), so keeping
        the file would only leak disk. Returns the digests of
        ``keep_digests`` that have a file."""
        kept: set[str] = set()
        for digest in self.partial_digests(fingerprint):
            if digest in keep_digests:
                kept.add(digest)
            else:
                self._partial_path(fingerprint, digest).unlink(
                    missing_ok=True)
        return kept

    # -- definitions ----------------------------------------------------------

    def save_definition(self, payload: dict) -> None:
        self._write_atomic(self._definition_path(payload["name"]), payload)

    def load_definitions(self) -> list[dict]:
        if not self.root.is_dir():
            return []
        out: list[dict] = []
        for path in sorted(self.root.glob("*.view.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            if (payload.get("format") == "cohana-view"
                    and payload.get("version") == DEFINITION_VERSION
                    and isinstance(payload.get("name"), str)
                    and isinstance(payload.get("text"), str)):
                out.append(payload)
        return out

    def drop_definition(self, name: str) -> bool:
        path = self._definition_path(name)
        if path.is_file():
            path.unlink()
            return True
        return False

    def remove_if_empty(self) -> None:
        """Delete the ``VIEWS/`` scaffolding once the last view is gone
        (rmdir only succeeds on empty directories, so foreign files are
        never touched)."""
        for path in (self.root / "partials", self.root):
            try:
                path.rmdir()
            except OSError:
                pass
