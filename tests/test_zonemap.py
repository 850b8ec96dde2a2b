"""Zone maps and compressed-domain scans: persistence round-trips,
pruning exactness, and decoded/compressed parity across the workload
queries."""

import numpy as np
import pytest

from repro.errors import ExecutionError, StorageError
from repro.cohana import CohanaEngine, plan_query
from repro.cohana.compressed import leaf_value_range, single_attr_name
from repro.datagen import GameConfig, generate
from repro.storage import (
    ZoneMap,
    build_zone_map,
    compress,
    deserialize,
    encode_chunk_integers,
    encode_chunk_strings,
    serialize,
)
from repro.storage.format import MAGIC, VERSION
from repro.storage.raw import RawFloatColumn
from repro.workloads import MAIN_QUERIES, queries as W


TABLE = "GameActions"

#: Birth selections that exercise every coded-domain rewrite family:
#: time ranges (delta), equality + IN (dict membership), string ranges
#: (dict gid ranges) and plain Q1-Q4.
PARITY_QUERIES = {
    **{name: fn(TABLE) for name, fn in MAIN_QUERIES.items()},
    "Q5_narrow": W.q5("2013-05-19", "2013-05-22", TABLE),
    "Q7": W.q7(4, TABLE),
    "rare_country": (
        f'SELECT role, COHORTSIZE, AGE, UserCount() FROM {TABLE} '
        f'BIRTH FROM action = "launch" AND country = "Norway" '
        f'COHORT BY role'),
    "country_range": (
        f'SELECT country, COHORTSIZE, AGE, Sum(gold) FROM {TABLE} '
        f'BIRTH FROM action = "launch" AND country >= "United" '
        f'COHORT BY country'),
    "country_in": (
        f'SELECT country, COHORTSIZE, AGE, Avg(gold) FROM {TABLE} '
        f'BIRTH FROM action = "shop" AND '
        f'country IN ["China", "Norway"] COHORT BY country'),
}


@pytest.fixture(scope="module")
def game_engine():
    eng = CohanaEngine()
    eng.create_table(TABLE, generate(GameConfig(n_users=57, seed=7)),
                     target_chunk_rows=256)
    return eng


class TestZoneMapBuild:
    def test_dict_column_gid_range(self):
        col = encode_chunk_strings(np.array([7, 3, 7, 5], dtype=np.int64))
        zm = build_zone_map(col)
        assert (zm.min_value, zm.max_value) == (3, 7)
        assert zm.distinct_count == 3
        assert zm.null_count == 0

    def test_delta_column_range(self):
        col = encode_chunk_integers(np.array([10, 25, 10], dtype=np.int64))
        zm = build_zone_map(col)
        assert (zm.min_value, zm.max_value) == (10, 25)
        assert zm.distinct_count == 2

    def test_raw_column_is_float(self):
        zm = build_zone_map(RawFloatColumn.encode([1.5, -2.5]))
        assert zm.is_float
        assert (zm.min_value, zm.max_value) == (-2.5, 1.5)

    def test_empty_segment(self):
        zm = build_zone_map(encode_chunk_integers(np.array([], np.int64)))
        assert zm.is_empty
        assert not zm.overlaps(None, None)
        assert not zm.within(None, None)

    def test_overlaps_and_within(self):
        zm = ZoneMap(10, 20, 5)
        assert zm.overlaps(15, None) and zm.overlaps(None, 10)
        assert not zm.overlaps(21, None) and not zm.overlaps(None, 9)
        assert zm.within(10, 20) and zm.within(None, None)
        assert not zm.within(11, 20) and not zm.within(10, 19)

    def test_invalid_counts_rejected(self):
        with pytest.raises(StorageError):
            ZoneMap(0, 1, -1)
        with pytest.raises(StorageError):
            ZoneMap(5, 1, 3)


class TestPersistence:
    def test_writer_populates_zone_maps(self, table1):
        compressed = compress(table1, target_chunk_rows=4)
        for chunk in compressed.chunks:
            assert set(chunk.zone_maps) == set(chunk.columns)

    def test_roundtrip_preserves_zone_maps(self, table1):
        compressed = compress(table1, target_chunk_rows=4)
        restored = deserialize(serialize(compressed))
        for orig, back in zip(compressed.chunks, restored.chunks):
            assert back.zone_maps == orig.zone_maps
        assert restored.decompress() == table1

    def test_zone_maps_match_recomputation(self, table1):
        restored = deserialize(serialize(compress(table1,
                                                  target_chunk_rows=4)))
        for chunk in restored.chunks:
            for name, col in chunk.columns.items():
                assert chunk.zone_map(name) == build_zone_map(col)

    def test_unsupported_version_rejected(self, table1):
        good = serialize(compress(table1))
        at = len(MAGIC)
        assert good[at:at + 2] == VERSION.to_bytes(2, "little")
        for version in (3, 99):
            data = good[:at] + version.to_bytes(2, "little") + good[at + 2:]
            with pytest.raises(StorageError, match=f"version {version}"):
                deserialize(data)


class TestPruning:
    def test_membership_pruning_on_equality(self, table1):
        eng = CohanaEngine()
        eng.create_table("D", table1, target_chunk_rows=4)
        text = ('SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
                'BIRTH FROM action = "launch" AND role = "dwarf" '
                'COHORT BY country')
        _, stats = eng.query_with_stats(text)
        assert stats.chunks_pruned_zone > 0
        # The legacy mode scans those chunks and reaches the same rows.
        res_default = eng.query(text)
        res_dec = eng.query(text, scan_mode="decoded")
        assert res_default.rows == res_dec.rows

    def test_range_pruning_on_string_bounds(self, table1):
        # A string range bound can only prune through the persisted zone
        # maps (global-id MIN/MAX): the chunks whose country ids all lie
        # outside it are skipped, with the rows a decoded scan gives.
        eng = CohanaEngine()
        eng.create_table("D", table1, target_chunk_rows=4)
        text = ('SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
                'BIRTH FROM action = "launch" AND country >= "China" '
                'AND country <= "China" COHORT BY country')
        result, stats = eng.query_with_stats(text)
        assert stats.chunks_pruned_zone > 0
        assert result.rows == eng.query(text, scan_mode="decoded").rows

    def test_unsatisfiable_birth_condition_prunes_everything(self, table1):
        eng = CohanaEngine()
        eng.create_table("D", table1, target_chunk_rows=4)
        text = ('SELECT country, COHORTSIZE, AGE, Sum(gold) FROM D '
                'BIRTH FROM action = "launch" AND role = "paladin" '
                'COHORT BY country')
        result, stats = eng.query_with_stats(text)
        assert result.rows == []
        assert stats.chunks_scanned == 0
        assert stats.chunks_pruned == stats.chunks_total
        assert eng.query(text, scan_mode="decoded").rows == []

    def test_prune_counters_add_up(self, game_engine):
        for text in PARITY_QUERIES.values():
            _, stats = game_engine.query_with_stats(text)
            assert stats.chunks_pruned + stats.chunks_scanned \
                == stats.chunks_total
            assert stats.chunks_pruned_zone <= stats.chunks_pruned

    def test_explain_shows_scan_mode_and_bounds(self, game_engine):
        text = game_engine.explain(PARITY_QUERIES["rare_country"])
        assert "scan_mode=compressed" in text
        assert "bounds=" in text


class TestScanModeParity:
    """scan_mode must never change results — only the work done."""

    @pytest.mark.parametrize("qname", sorted(PARITY_QUERIES))
    def test_compressed_equals_decoded(self, game_engine, qname):
        text = PARITY_QUERIES[qname]
        decoded = game_engine.query(text, scan_mode="decoded")
        compressed = game_engine.query(text, scan_mode="compressed")
        default = game_engine.query(text)
        assert compressed.rows == decoded.rows
        assert default.rows == decoded.rows
        assert compressed.columns == decoded.columns

    @pytest.mark.parametrize("qname", ("Q4", "rare_country"))
    def test_parity_across_kernels_and_jobs(self, game_engine, qname):
        text = PARITY_QUERIES[qname]
        base = game_engine.query(text, scan_mode="decoded")
        for executor in ("vectorized", "iterator"):
            for jobs in (1, 4):
                got = game_engine.query(text, executor=executor,
                                        jobs=jobs,
                                        scan_mode="compressed")
                assert got.rows == base.rows


class TestConfigAndCli:
    def test_bad_scan_mode_rejected(self, game_engine):
        query = game_engine.parse(PARITY_QUERIES["Q1"])
        for mode in ("turbo", "auto"):
            with pytest.raises(ExecutionError, match="scan_mode"):
                plan_query(query, game_engine.table(TABLE),
                           scan_mode=mode)

    def test_decoded_scan_mode_matches_default(self, game_engine):
        assert game_engine.query(
            PARITY_QUERIES["Q1"], scan_mode="decoded").rows == \
            game_engine.query(PARITY_QUERIES["Q1"]).rows

    def test_cli_scan_mode(self, tmp_path, capsys):
        from repro.cli import main
        csv = tmp_path / "d.csv"
        store = tmp_path / "d.cohana"
        assert main(["generate", str(csv), "--users", "8"]) == 0
        assert main(["compress", str(csv), str(store),
                     "--chunk-rows", "64"]) == 0
        text = ('SELECT country, COHORTSIZE, AGE, UserCount() FROM G '
                'BIRTH FROM action = "launch" COHORT BY country')
        capsys.readouterr()  # drop generate/compress chatter
        outputs = []
        for mode in ("decoded", "compressed"):
            assert main(["query", str(store), text,
                         "--scan-mode", mode]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestCompressedHelpers:
    def test_single_attr_name_shapes(self):
        from repro.cohort.conditions import (AttrRef, Between, Compare,
                                             InList, Literal)
        attr = AttrRef("gold")
        assert single_attr_name(Compare(attr, "<", Literal(5))) == "gold"
        assert single_attr_name(Compare(Literal(5), "<", attr)) == "gold"
        assert single_attr_name(Between(attr, Literal(1),
                                        Literal(2))) == "gold"
        assert single_attr_name(InList(attr, (1, 2))) == "gold"
        assert single_attr_name(Compare(attr, "=", attr)) is None

    def test_leaf_value_range_integral(self):
        from repro.cohort.conditions import (AttrRef, Between, Compare,
                                             InList, Literal)
        attr = AttrRef("gold")
        rng = lambda c: leaf_value_range(c, integral=True)  # noqa: E731
        assert rng(Compare(attr, "=", Literal(5))) == (5, 5, True)
        assert rng(Compare(attr, "<", Literal(5))) == (None, 4, True)
        assert rng(Compare(Literal(5), "<", attr)) == (6, None, True)
        assert rng(Between(attr, Literal(1), Literal(9))) == (1, 9, True)
        assert rng(InList(attr, (3, 7))) == (3, 7, False)
        assert rng(Compare(attr, "!=", Literal(5))) is None

    def test_leaf_value_range_float_column(self):
        # Over a float column the integer ±1 rewrite would be wrong:
        # 4.5 satisfies "< 5" but not "<= 4". Strict bounds stay at the
        # literal, inclusive and inexact.
        from repro.cohort.conditions import AttrRef, Compare, Literal
        attr = AttrRef("score")
        assert leaf_value_range(Compare(attr, "<", Literal(5)),
                                integral=False) == (None, 5, False)
        assert leaf_value_range(Compare(attr, ">", Literal(5)),
                                integral=False) == (5, None, False)
        assert leaf_value_range(Compare(attr, "<=", Literal(5)),
                                integral=False) == (None, 5, True)


class TestFloatColumnBounds:
    """Regression: int literals over FLOAT columns must not be
    tightened as if the column were integer-valued."""

    @pytest.fixture
    def float_engine(self):
        from repro.schema import ActivitySchema, LogicalType
        from repro.table import ActivityTable
        schema = ActivitySchema.build(
            user="player", time="time", action="action",
            dimensions={"country": LogicalType.STRING},
            measures={"score": LogicalType.FLOAT})
        rows = [("a", "2013-05-19", "launch", "US", 4.5),
                ("a", "2013-05-20", "shop", "US", 4.5),
                ("b", "2013-05-19", "launch", "CN", 9.5),
                ("b", "2013-05-20", "shop", "CN", 9.5)]
        eng = CohanaEngine()
        eng.create_table("D", ActivityTable.from_rows(schema, rows),
                         target_chunk_rows=2)
        return eng

    def test_strict_less_than_int_literal(self, float_engine):
        # score < 5 must keep the 4.5-score birth tuple: the coded
        # bound may not collapse to high=4.
        from repro.cohort.aggregates import AggregateSpec
        from repro.cohort.conditions import AttrRef, Compare, Literal
        from repro.cohort.query import CohortQuery
        query = CohortQuery(
            birth_action="launch",
            cohort_by=("country",),
            aggregates=(AggregateSpec("COUNT", None, "events"),),
            birth_condition=Compare(AttrRef("score"), "<", Literal(5)),
            table="D",
        )
        decoded = float_engine.query(query, scan_mode="decoded")
        compressed = float_engine.query(query, scan_mode="compressed")
        assert decoded.rows == compressed.rows
        assert len(decoded.rows) == 1  # the US user qualifies
