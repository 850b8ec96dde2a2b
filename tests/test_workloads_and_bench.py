"""Tests for the Q1-Q8 workload texts and the bench harness."""


from repro.bench.experiments import TABLE, Report, ablations, \
    cohana_engine, dataset, fig07_storage, prepared_system, time_call
from repro.datagen import game_schema
from repro.workloads import (
    MAIN_QUERIES,
    bind,
    day_offset,
    q1,
    q2,
    q3,
    q4,
    q5,
    q6,
    q7,
    q8,
)


class TestWorkloadQueries:
    def test_all_main_queries_bind(self):
        schema = game_schema()
        for name, fn in MAIN_QUERIES.items():
            query = bind(fn("D"), schema)
            assert query.table == "D", name

    def test_q1_q2_use_launch_and_usercount(self):
        schema = game_schema()
        for text in (q1("D"), q2("D")):
            query = bind(text, schema)
            assert query.birth_action == "launch"
            assert query.aggregates[0].func == "USERCOUNT"

    def test_q3_q4_use_shop_and_avg(self):
        schema = game_schema()
        for text in (q3("D"), q4("D")):
            query = bind(text, schema)
            assert query.birth_action == "shop"
            assert query.aggregates[0].func == "AVG"
            assert query.age_condition.plain_attributes() >= {"action"}

    def test_q4_has_birth_country_filter(self):
        query = bind(q4("D"), game_schema())
        assert "country" in query.age_condition.birth_attributes()

    def test_q5_q6_parameterized_range(self):
        schema = game_schema()
        d2 = day_offset("2013-05-19", 10)
        assert d2 == "2013-05-29"
        for text in (q5("2013-05-19", d2, "D"), q6("2013-05-19", d2,
                                                   "D")):
            query = bind(text, schema)
            assert query.birth_condition.plain_attributes() == {"time"}

    def test_q7_q8_age_cutoff(self):
        schema = game_schema()
        for text in (q7(5, "D"), q8(5, "D")):
            query = bind(text, schema)
            assert query.age_condition.uses_age()


class TestHarness:
    def test_dataset_cached_and_scaled(self):
        a = dataset(1)
        assert dataset(1) is a
        b = dataset(2)
        assert len(b) == 2 * len(a)
        assert dataset(2) is b

    def test_time_call_positive(self):
        assert time_call(lambda: sum(range(100)), repeat=2) >= 0

    def test_series_and_report(self):
        report = Report(title="t", x_label="scale", y_label="seconds")
        s = report.series_named("A")
        s.add(1, 0.5)
        s.add(2, 1.0)
        report.series_named("B").add(1, 2)
        assert report.series_named("A") is s
        assert report.xs() == [1, 2]
        assert s.y_at(2) == 1.0
        assert s.y_at(99) is None
        text = report.to_text()
        assert "== t ==" in text
        assert "A" in text and "B" in text
        assert "-" in text  # missing B@2 rendered as dash


class TestExperimentsSmoke:
    """Tiny-scale smoke runs of the figure experiments."""

    def test_cohana_engine_cached(self):
        assert cohana_engine(1, 512) is cohana_engine(1, 512)

    def test_prepared_system_cached(self):
        assert prepared_system("COHANA", 1) is prepared_system("COHANA",
                                                               1)

    def test_fig07_report_shape(self):
        report = fig07_storage(scales=(1,), chunk_rows=(256, 4096))
        assert len(report.series) == 2
        small = report.series_named("chunk=256").y_at(1)
        big = report.series_named("chunk=4096").y_at(1)
        assert small is not None and big is not None
        # Figure 7's claim: larger chunks never compress better.
        assert big >= small

    def test_ablation_report(self):
        report = ablations(scale=1, chunk_rows=512, repeat=1)
        labels = [s.label for s in report.series]
        assert "vectorized" in labels
        assert any("iterator" in lbl for lbl in labels)

    def test_main_queries_run_on_benchmark_dataset(self):
        engine = cohana_engine(1, 4096)
        for name, fn in MAIN_QUERIES.items():
            result = engine.query(fn(TABLE))
            assert len(result.rows) > 0, name
