"""Binary (de)serialization of compressed activity tables.

A ``.cohana`` file is a self-describing little-endian container::

    magic "COHANA01" | version u16
    content digest      (32-byte SHA-256 of everything after this field)
    schema           (column name / type / role triples)
    target_chunk_rows u64
    global dictionaries (per string column)
    global ranges       (per integer column)
    n_chunks u32
    chunks              (n_rows, RLE user column, segments, zone maps)
    chunk index         (offset u64, length u64 per chunk)
    index offset u64    (position of the chunk index)

There is one layout, :data:`VERSION` 4; a file carrying any other
version number is refused. Each chunk is followed by its per-column
zone maps (coded-domain min/max, distinct count, null count; see
:mod:`repro.storage.zonemap`), which the scheduler uses to skip chunks
without decoding anything. The trailing chunk index makes the file
memory-mappable: :func:`load` mmaps it and returns a lazy table whose
chunks deserialize on first touch
(:class:`~repro.storage.reader.LazyChunkList`). The header digest is
stamped at write time, so a load reads the table's *version token*
without touching the payload; the query service's result cache keys on
it, so rewriting a file under the same path invalidates every cached
result derived from the old bytes.

The format favours simplicity and determinism over minimum size; the
compression itself lives in the per-column encoders.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from repro.errors import StorageError
from repro.schema import ActivitySchema, ColumnRole, ColumnSpec, LogicalType
from repro.storage.bitpack import PackedArray
from repro.storage.chunk import Chunk, EncodedColumn
from repro.storage.delta import DeltaEncodedColumn, GlobalRange
from repro.storage.dictionary import DictEncodedColumn, GlobalDictionary
from repro.storage.raw import RawFloatColumn
from repro.storage.reader import CompressedActivityTable, LazyChunkList
from repro.storage.rle import RleColumn
from repro.storage.zonemap import ZoneMap

MAGIC = b"COHANA01"
#: The one format version read and written (see the module docstring).
VERSION = 4
#: Bytes of the header digest field (raw SHA-256).
_DIGEST_BYTES = 32

_KIND_DICT = 0
_KIND_DELTA = 1
_KIND_RAW = 2

_ZONE_INT = 0
_ZONE_FLOAT = 1


class _Writer:
    """Append-only little-endian byte buffer."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def bytes_(self, data: bytes) -> None:
        self._parts.append(data)

    def u8(self, v: int) -> None:
        self._parts.append(struct.pack("<B", v))

    def u16(self, v: int) -> None:
        self._parts.append(struct.pack("<H", v))

    def u32(self, v: int) -> None:
        self._parts.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self._parts.append(struct.pack("<Q", v))

    def i64(self, v: int) -> None:
        self._parts.append(struct.pack("<q", v))

    def f64(self, v: float) -> None:
        self._parts.append(struct.pack("<d", v))

    def lp_str(self, text: str) -> None:
        data = text.encode("utf-8")
        self.u32(len(data))
        self.bytes_(data)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    """Sequential little-endian byte reader with bounds checking."""

    def __init__(self, data: bytes | mmap.mmap):
        self._data = data
        self._pos = 0

    def bytes_(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise StorageError("truncated .cohana data")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.bytes_(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.bytes_(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.bytes_(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.bytes_(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.bytes_(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.bytes_(8))[0]

    def lp_str(self) -> str:
        return self.bytes_(self.u32()).decode("utf-8")

    def at_end(self) -> bool:
        return self._pos == len(self._data)


# -- packed arrays ----------------------------------------------------------

def _write_packed(w: _Writer, packed: PackedArray) -> None:
    w.u8(packed.bit_width)
    w.u64(packed.count)
    w.u64(len(packed.words))
    w.bytes_(packed.words.astype("<u8").tobytes())


def _read_packed(r: _Reader) -> PackedArray:
    bit_width = r.u8()
    count = r.u64()
    n_words = r.u64()
    words = np.frombuffer(r.bytes_(n_words * 8), dtype="<u8").astype(np.uint64)
    return PackedArray(words=words, bit_width=bit_width, count=count)


# -- columns ------------------------------------------------------------------

def _write_column(w: _Writer, col: EncodedColumn) -> None:
    if isinstance(col, DictEncodedColumn):
        w.u8(_KIND_DICT)
        _write_packed(w, col.chunk_dict)
        _write_packed(w, col.chunk_ids)
    elif isinstance(col, DeltaEncodedColumn):
        w.u8(_KIND_DELTA)
        w.i64(col.min_value)
        w.i64(col.max_value)
        _write_packed(w, col.deltas)
    elif isinstance(col, RawFloatColumn):
        w.u8(_KIND_RAW)
        w.u64(len(col))
        w.bytes_(col.values.astype("<f8").tobytes())
    else:  # pragma: no cover - defensive
        raise StorageError(f"unknown column segment type: {type(col)}")


def _read_column(r: _Reader) -> EncodedColumn:
    kind = r.u8()
    if kind == _KIND_DICT:
        chunk_dict = _read_packed(r)
        chunk_ids = _read_packed(r)
        return DictEncodedColumn(chunk_dict=chunk_dict, chunk_ids=chunk_ids)
    if kind == _KIND_DELTA:
        lo = r.i64()
        hi = r.i64()
        deltas = _read_packed(r)
        return DeltaEncodedColumn(min_value=lo, max_value=hi, deltas=deltas)
    if kind == _KIND_RAW:
        n = r.u64()
        values = np.frombuffer(r.bytes_(n * 8), dtype="<f8").astype(np.float64)
        if values.size == 0:
            return RawFloatColumn(values, 0.0, 0.0)
        return RawFloatColumn(values, float(values.min()),
                              float(values.max()))
    raise StorageError(f"unknown column kind byte: {kind}")


# -- zone maps ----------------------------------------------------------------

def _write_zone_map(w: _Writer, zm: ZoneMap) -> None:
    if zm.is_float:
        w.u8(_ZONE_FLOAT)
        w.f64(float(zm.min_value))
        w.f64(float(zm.max_value))
    else:
        w.u8(_ZONE_INT)
        w.i64(int(zm.min_value))
        w.i64(int(zm.max_value))
    w.u64(zm.distinct_count)
    w.u64(zm.null_count)


def _read_zone_map(r: _Reader) -> ZoneMap:
    kind = r.u8()
    if kind == _ZONE_INT:
        lo, hi = r.i64(), r.i64()
    elif kind == _ZONE_FLOAT:
        lo, hi = r.f64(), r.f64()
    else:
        raise StorageError(f"unknown zone-map value kind byte: {kind}")
    distinct = r.u64()
    nulls = r.u64()
    return ZoneMap(lo, hi, distinct, nulls)


# -- chunks -------------------------------------------------------------------

def _write_chunk(w: _Writer, chunk: Chunk) -> None:
    w.u64(chunk.n_rows)
    _write_packed(w, chunk.users.user_ids)
    _write_packed(w, chunk.users.starts)
    _write_packed(w, chunk.users.counts)
    w.u32(len(chunk.columns))
    for name in sorted(chunk.columns):
        w.lp_str(name)
        _write_column(w, chunk.columns[name])
    w.u32(len(chunk.zone_maps))
    for name in sorted(chunk.zone_maps):
        w.lp_str(name)
        _write_zone_map(w, chunk.zone_maps[name])


def _parse_chunk_blob(blob: bytes, index: int) -> Chunk:
    """Deserialize one indexed chunk payload (the lazy-load entry point).

    The blob must be consumed exactly: leftover bytes mean the index and
    the payload disagree, i.e. a corrupt file.
    """
    r = _Reader(blob)
    n_rows = r.u64()
    users = RleColumn(
        user_ids=_read_packed(r),
        starts=_read_packed(r),
        counts=_read_packed(r),
        n_rows=n_rows,
    )
    columns = {}
    for _ in range(r.u32()):
        name = r.lp_str()
        columns[name] = _read_column(r)
    zone_maps: dict[str, ZoneMap] = {}
    for _ in range(r.u32()):
        name = r.lp_str()
        zone_maps[name] = _read_zone_map(r)
    if not r.at_end():
        raise StorageError(f"chunk {index}: trailing bytes after payload")
    return Chunk(index=index, n_rows=n_rows, users=users,
                 columns=columns, zone_maps=zone_maps)


# -- top level ----------------------------------------------------------------

def serialize(table: CompressedActivityTable) -> bytes:
    """Encode a compressed activity table to bytes."""
    # The prefix (magic + version + digest field) is assembled last: the
    # digest covers every byte after itself, so the body must exist
    # before the digest can be computed. Chunk-index offsets are
    # absolute, hence they account for the prefix length.
    w = _Writer()
    w.u32(len(table.schema))
    for spec in table.schema:
        w.lp_str(spec.name)
        w.lp_str(spec.ltype.value)
        w.lp_str(spec.role.value)
    w.u64(table.target_chunk_rows)
    w.u32(len(table.global_dicts))
    for name in sorted(table.global_dicts):
        w.lp_str(name)
        gdict = table.global_dicts[name]
        w.u64(len(gdict))
        for value in gdict.values:
            w.lp_str(value)
    w.u32(len(table.global_ranges))
    for name in sorted(table.global_ranges):
        w.lp_str(name)
        rng = table.global_ranges[name]
        w.i64(rng.min_value)
        w.i64(rng.max_value)
    w.u32(len(table.chunks))
    header = w.getvalue()
    # Chunk payloads followed by the (offset, length) index and, in the
    # trailing 8 bytes, the index's own offset.
    blobs: list[bytes] = []
    entries: list[tuple[int, int]] = []
    offset = len(MAGIC) + 2 + _DIGEST_BYTES + len(header)
    for chunk in table.chunks:
        cw = _Writer()
        _write_chunk(cw, chunk)
        blob = cw.getvalue()
        entries.append((offset, len(blob)))
        offset += len(blob)
        blobs.append(blob)
    fw = _Writer()
    for entry_offset, entry_length in entries:
        fw.u64(entry_offset)
        fw.u64(entry_length)
    fw.u64(offset)  # where the index starts
    body = header + b"".join(blobs) + fw.getvalue()
    pw = _Writer()
    pw.bytes_(MAGIC)
    pw.u16(VERSION)
    pw.bytes_(hashlib.sha256(body).digest())
    return pw.getvalue() + body


def _read_chunk_index(data: bytes | mmap.mmap, n_chunks: int,
                      header_end: int) -> list[tuple[int, int]]:
    """Parse and validate the chunk index.

    The validation is deliberately strict — offsets must tile the byte
    range between the header and the index exactly — so that any
    truncated or spliced file fails here with a clean StorageError
    instead of decoding garbage.
    """
    index_size = 16 * n_chunks + 8
    if len(data) < header_end + index_size:
        raise StorageError("truncated .cohana data (chunk index missing)")
    index_offset = struct.unpack("<Q", data[-8:])[0]
    if index_offset != len(data) - index_size or index_offset < header_end:
        raise StorageError("corrupt .cohana chunk index offset "
                           "(trailing or missing bytes)")
    r = _Reader(data[index_offset:len(data) - 8])
    entries = [(r.u64(), r.u64()) for _ in range(n_chunks)]
    expected = header_end
    for i, (offset, length) in enumerate(entries):
        if offset != expected:
            raise StorageError(f"corrupt .cohana chunk index: chunk {i} "
                               f"at offset {offset}, expected {expected}")
        expected = offset + length
    if expected != index_offset:
        raise StorageError("corrupt .cohana chunk index: payload bytes "
                           "and index disagree")
    return entries


def _read_prefix(r: _Reader) -> tuple[str, ActivitySchema]:
    """Magic, version, content digest and schema: the start of every
    file, before any dictionary or chunk."""
    if r.bytes_(len(MAGIC)) != MAGIC:
        raise StorageError("not a .cohana file (bad magic)")
    version = r.u16()
    if version != VERSION:
        raise StorageError(f"unsupported .cohana version {version} "
                           f"(this build reads version {VERSION})")
    content_digest = r.bytes_(_DIGEST_BYTES).hex()
    specs = []
    for _ in range(r.u32()):
        name = r.lp_str()
        ltype = LogicalType(r.lp_str())
        role = ColumnRole(r.lp_str())
        specs.append(ColumnSpec(name, ltype, role))
    return content_digest, ActivitySchema(tuple(specs))


def deserialize(data: bytes | mmap.mmap,
                lazy: bool = False) -> CompressedActivityTable:
    """Decode bytes produced by :func:`serialize`.

    Args:
        data: the serialized table — ``bytes`` or any buffer supporting
            slicing (e.g. an ``mmap``).
        lazy: defer per-chunk deserialization until first touch.

    Raises:
        StorageError: on a bad magic number, a version other than
            :data:`VERSION`, or a truncated/corrupt payload.
    """
    r = _Reader(data)
    content_digest, schema = _read_prefix(r)
    target_chunk_rows = r.u64()
    global_dicts: dict[str, GlobalDictionary] = {}
    for _ in range(r.u32()):
        name = r.lp_str()
        values = tuple(r.lp_str() for _ in range(r.u64()))
        global_dicts[name] = GlobalDictionary(values)
    global_ranges: dict[str, GlobalRange] = {}
    for _ in range(r.u32()):
        name = r.lp_str()
        global_ranges[name] = GlobalRange(r.i64(), r.i64())
    n_chunks = r.u32()
    entries = _read_chunk_index(data, n_chunks, r._pos)
    chunks: list[Chunk] | LazyChunkList
    if lazy:
        chunks = LazyChunkList(data, entries, _parse_chunk_blob)
    else:
        chunks = [_parse_chunk_blob(data[offset:offset + length], index)
                  for index, (offset, length) in enumerate(entries)]
    return CompressedActivityTable(
        schema=schema,
        global_dicts=global_dicts,
        global_ranges=global_ranges,
        chunks=chunks,
        target_chunk_rows=target_chunk_rows,
        content_digest=content_digest,
    )


def save(table: CompressedActivityTable, path: str | Path) -> int:
    """Write ``table`` to ``path``; returns bytes written."""
    data = serialize(table)
    Path(path).write_bytes(data)
    return len(data)


def load_schema(path: str | Path) -> ActivitySchema:
    """The schema of the ``.cohana`` file at ``path``, read from its
    header alone: no dictionary, range or chunk is decoded."""
    with open(path, "rb") as f:
        if not os.fstat(f.fileno()).st_size:
            raise StorageError("truncated .cohana data")
        with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as data:
            return _read_prefix(_Reader(data))[1]


def load(path: str | Path) -> CompressedActivityTable:
    """Read a compressed activity table from ``path``.

    Args:
        path: a ``.cohana`` file, or a sharded table directory (one
            containing a shard ``MANIFEST.json`` — see
            :mod:`repro.storage.sharded`), or the manifest file itself.

    A file is memory-mapped and loaded lazily: the header is parsed and
    the chunk index validated now, each chunk is deserialized on first
    touch. (For an eager in-memory decode, pass the file's bytes to
    :func:`deserialize`.) The returned table records ``source_path``,
    which lets the ``processes`` execution backend reopen it inside
    worker processes.
    """
    path = Path(path)
    from repro.storage.sharded import is_sharded_path, load_sharded
    if is_sharded_path(path):
        return load_sharded(path)
    data: bytes | mmap.mmap = b""
    with open(path, "rb") as f:
        # mmap refuses an empty file; deserialize reports it as truncated.
        if os.fstat(f.fileno()).st_size:
            data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    table = deserialize(data, lazy=True)
    table.source_path = str(path)
    return table
