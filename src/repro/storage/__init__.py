"""COHANA's chunked, compressed columnar storage format (Section 4.1)."""

from repro.storage.bitpack import PackedArray, bits_needed, pack
from repro.storage.chunk import Chunk, encoded_column_kind
from repro.storage.delta import (
    DeltaEncodedColumn,
    GlobalRange,
    encode_chunk_integers,
)
from repro.storage.dictionary import (
    DictEncodedColumn,
    GlobalDictionary,
    encode_chunk_strings,
)
from repro.storage.compaction import (
    CompactionResult,
    RetentionResult,
    compact,
    gc_shards,
    prune_retention,
    select_small_shards,
)
from repro.storage.format import deserialize, load, save, serialize
from repro.storage.raw import RawFloatColumn
from repro.storage.reader import CompressedActivityTable
from repro.storage.rle import RleColumn, encode_users
from repro.storage.sharded import (
    CRASH_POINTS,
    MANIFEST_NAME,
    ShardedActivityTable,
    VERIFIED_SHARDS,
    append_shard,
    combine_logical,
    compose_digest,
    is_sharded_path,
    load_sharded,
    logical_digest_of,
    pinned_shard_files,
    publish_lock,
    publish_manifest,
    read_manifest,
    set_crash_hook,
    verify_shard_file,
)
from repro.storage.stats import ColumnStats, StorageStats, collect_stats
from repro.storage.writer import DEFAULT_CHUNK_ROWS, compress
from repro.storage.zonemap import ZoneMap, build_zone_map, build_zone_maps

__all__ = [
    "CRASH_POINTS",
    "Chunk",
    "ColumnStats",
    "CompactionResult",
    "CompressedActivityTable",
    "DEFAULT_CHUNK_ROWS",
    "DeltaEncodedColumn",
    "DictEncodedColumn",
    "GlobalDictionary",
    "GlobalRange",
    "MANIFEST_NAME",
    "PackedArray",
    "RawFloatColumn",
    "RetentionResult",
    "RleColumn",
    "ShardedActivityTable",
    "StorageStats",
    "VERIFIED_SHARDS",
    "ZoneMap",
    "append_shard",
    "bits_needed",
    "build_zone_map",
    "build_zone_maps",
    "collect_stats",
    "combine_logical",
    "compact",
    "compose_digest",
    "compress",
    "deserialize",
    "encode_chunk_integers",
    "encode_chunk_strings",
    "encode_users",
    "encoded_column_kind",
    "gc_shards",
    "is_sharded_path",
    "load",
    "load_sharded",
    "logical_digest_of",
    "pack",
    "pinned_shard_files",
    "prune_retention",
    "publish_lock",
    "publish_manifest",
    "read_manifest",
    "save",
    "select_small_shards",
    "serialize",
    "set_crash_hook",
    "verify_shard_file",
]
