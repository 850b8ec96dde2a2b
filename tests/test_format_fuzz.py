"""Failure injection for the .cohana binary format and the shard manifest.

A corrupted or truncated file must fail with a clean StorageError (or a
bounded decode error) — never a hang, a silent crash, or an unbounded
allocation from a crazy length field. Truncation at *every* byte boundary
is exhaustive on a small file; header corruption is byte-by-byte over the
fixed-layout prefix.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, StorageError
from repro.storage import (
    MANIFEST_NAME,
    append_shard,
    compress,
    deserialize,
    load,
    serialize,
)

from helpers import make_table1

#: Exceptions a corrupted payload may legitimately surface. Anything
#: else (or a hang) is a bug.
ACCEPTABLE = (ReproError, ValueError, OverflowError, MemoryError,
              UnicodeDecodeError)

_PAYLOAD = serialize(compress(make_table1(), target_chunk_rows=4))


class TestTruncation:
    def test_every_prefix_fails_cleanly(self):
        for length in range(len(_PAYLOAD)):
            with pytest.raises(ACCEPTABLE):
                deserialize(_PAYLOAD[:length])

    def test_empty(self):
        with pytest.raises(StorageError):
            deserialize(b"")


class TestHeaderCorruption:
    def test_magic_bytes(self):
        for i in range(8):
            data = bytearray(_PAYLOAD)
            data[i] ^= 0xFF
            with pytest.raises(StorageError, match="magic"):
                deserialize(bytes(data))

    def test_version_bytes(self):
        data = bytearray(_PAYLOAD)
        data[8] ^= 0xFF
        with pytest.raises(StorageError, match="version"):
            deserialize(bytes(data))


#: Files ``load`` (which memory-maps) must refuse with a StorageError.
BAD_FILES = {
    "empty": b"",
    "five bytes": _PAYLOAD[:5],
    "not a cohana file": b"player,time,action\nu1,2013/05/19:1000,launch\n",
    "version field set to 3":
        _PAYLOAD[:8] + (3).to_bytes(2, "little") + _PAYLOAD[10:],
    # Drops the trailing index offset and 4 bytes of the last entry.
    "truncated inside the chunk index": _PAYLOAD[:-12],
}


class TestLoadEdgeFiles:
    @pytest.mark.parametrize("case", sorted(BAD_FILES))
    def test_bad_file_is_a_storage_error(self, tmp_path, case):
        path = tmp_path / "t.cohana"
        path.write_bytes(BAD_FILES[case])
        with pytest.raises(StorageError):
            load(path)


@given(position=st.integers(min_value=10, max_value=len(_PAYLOAD) - 1),
       flip=st.integers(min_value=1, max_value=255))
@settings(max_examples=150, deadline=None)
def test_property_single_byte_corruption_is_contained(position, flip):
    """Flipping any single byte either still decodes (a harmless value
    change) or raises a clean, expected error."""
    data = bytearray(_PAYLOAD)
    data[position] ^= flip
    try:
        table = deserialize(bytes(data))
        # If it decodes, the structure must still be self-consistent.
        assert table.n_rows >= 0
        assert table.n_chunks == len(table.chunks)
    except ACCEPTABLE:
        pass


def test_roundtrip_still_intact():
    assert deserialize(_PAYLOAD).n_rows == 10


# --------------------------------------------------------------------
# MANIFEST.json: the shard manifest is outside input too
# --------------------------------------------------------------------


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    """A valid two-shard table directory and its manifest bytes."""
    directory = tmp_path_factory.mktemp("fuzz") / "T"
    table = make_table1()
    append_shard(directory, table.slice(0, 5), target_chunk_rows=4)
    append_shard(directory, table.slice(5, 10), target_chunk_rows=4)
    return directory, (directory / MANIFEST_NAME).read_bytes()


def _with_first_entry(good: bytes, **fields) -> bytes:
    manifest = json.loads(good)
    manifest["shards"][0].update(fields)
    return json.dumps(manifest).encode("utf-8")


def _without_first_entry_key(good: bytes, key: str) -> bytes:
    manifest = json.loads(good)
    del manifest["shards"][0][key]
    return json.dumps(manifest).encode("utf-8")


MALFORMED_MANIFESTS = {
    "top level list": lambda good: b"[]",
    "top level null": lambda good: b"null",
    "not utf-8": lambda good: b"\xff\xfe" + good,
    "entry is a number": lambda good: json.dumps(
        {**json.loads(good), "shards": [1]}).encode("utf-8"),
    "digest is a number":
        lambda good: _with_first_entry(good, content_digest=5),
    "absolute path":
        lambda good: _with_first_entry(good, path="/etc/passwd"),
    "path leaves the directory":
        lambda good: _with_first_entry(
            good, path="../T/shard-000001.cohana"),
    "path is dot-dot": lambda good: _with_first_entry(good, path=".."),
    "path is a number": lambda good: _with_first_entry(good, path=1),
    "negative n_rows": lambda good: _with_first_entry(good, n_rows=-1),
    "fractional n_chunks":
        lambda good: _with_first_entry(good, n_chunks=1.5),
    "boolean n_chunks":
        lambda good: _with_first_entry(good, n_chunks=True),
    "logical digest is a number":
        lambda good: _with_first_entry(good, logical_digest=5),
    "logical digest is not hex":
        lambda good: _with_first_entry(good, logical_digest="zz"),
    "time range is a string":
        lambda good: _with_first_entry(good, time_range="x"),
    "time range has one bound":
        lambda good: _with_first_entry(good, time_range=[1]),
    "time range is inverted":
        lambda good: _with_first_entry(good, time_range=[5, 1]),
    "time range bound is boolean":
        lambda good: _with_first_entry(good, time_range=[True, 2]),
    "no generation": lambda good: json.dumps(
        {key: value for key, value in json.loads(good).items()
         if key != "generation"}).encode("utf-8"),
    "logical digest absent":
        lambda good: _without_first_entry_key(good, "logical_digest"),
    "logical digest is null":
        lambda good: _with_first_entry(good, logical_digest=None),
    "time range absent":
        lambda good: _without_first_entry_key(good, "time_range"),
    "time range is null":
        lambda good: _with_first_entry(good, time_range=None),
}


class TestManifestCorruption:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_is_a_storage_error(self, shard_dir,
                                                   case):
        directory, good = shard_dir
        manifest_path = directory / MANIFEST_NAME
        manifest_path.write_bytes(MALFORMED_MANIFESTS[case](good))
        try:
            with pytest.raises(StorageError, match=MANIFEST_NAME):
                load(directory)
        finally:
            manifest_path.write_bytes(good)

    def test_valid_manifest_still_loads(self, shard_dir):
        directory, _ = shard_dir
        assert load(directory).n_rows == 10

    @given(data=st.data(), flip=st.integers(min_value=1, max_value=255))
    @settings(max_examples=150, deadline=None)
    def test_property_single_byte_corruption_is_contained(
            self, shard_dir, data, flip):
        """Flipping any single manifest byte either still loads or
        raises StorageError — never a raw Python exception."""
        directory, good = shard_dir
        position = data.draw(st.integers(0, len(good) - 1))
        corrupt = bytearray(good)
        corrupt[position] ^= flip
        manifest_path = directory / MANIFEST_NAME
        manifest_path.write_bytes(bytes(corrupt))
        try:
            table = load(directory)
            assert table.n_chunks == sum(s.n_chunks for s in table.shards)
        except StorageError:
            pass
        finally:
            manifest_path.write_bytes(good)
