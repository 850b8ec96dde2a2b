"""End-to-end tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


@pytest.fixture
def demo_csv(tmp_path):
    path = tmp_path / "demo.csv"
    assert main(["generate", str(path), "--users", "8", "--seed",
                 "5"]) == 0
    return path


@pytest.fixture
def demo_cohana(tmp_path, demo_csv):
    path = tmp_path / "demo.cohana"
    assert main(["compress", str(demo_csv), str(path), "--chunk-rows",
                 "64"]) == 0
    return path


class TestGenerate:
    def test_writes_csv(self, demo_csv, capsys):
        assert demo_csv.exists()
        header = demo_csv.read_text().splitlines()[0]
        assert header.split(",")[:3] == ["player", "time", "action"]

    def test_scale_flag(self, tmp_path, capsys):
        path = tmp_path / "s2.csv"
        assert main(["generate", str(path), "--users", "4", "--scale",
                     "2"]) == 0
        out = capsys.readouterr().out
        assert "(8 users)" in out


class TestCompressInspect:
    def test_compress_roundtrip(self, demo_cohana, capsys):
        assert demo_cohana.exists()
        assert main(["inspect", str(demo_cohana)]) == 0
        out = capsys.readouterr().out
        assert "bits/tuple" in out
        assert "[dict]" in out and "[delta]" in out

    def test_compress_missing_input(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["compress", str(tmp_path / "nope.csv"),
                  str(tmp_path / "out.cohana")])

    def test_inspect_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cohana"
        bad.write_bytes(b"not a cohana file at all")
        assert main(["inspect", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


QUERY = ('SELECT country, COHORTSIZE, AGE, UserCount() FROM D '
         'BIRTH FROM action = "launch" COHORT BY country')


class TestQuery:
    def test_query_runs(self, demo_cohana, capsys):
        assert main(["query", str(demo_cohana), QUERY]) == 0
        out = capsys.readouterr().out
        assert "cohort_size" in out

    def test_query_pivot(self, demo_cohana, capsys):
        assert main(["query", str(demo_cohana), QUERY, "--pivot"]) == 0
        assert "by (cohort, age)" in capsys.readouterr().out

    def test_query_explain(self, demo_cohana, capsys):
        assert main(["query", str(demo_cohana), QUERY, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "TableScan" in out
        assert "Execution(backend=serial, jobs=1, scan_mode=auto)" in out

    def test_query_explain_shows_jobs_and_backend(self, demo_cohana,
                                                  capsys):
        """--explain reflects --jobs/--backend instead of ignoring them;
        jobs>1 on an on-disk table auto-resolves to processes."""
        assert main(["query", str(demo_cohana), QUERY, "--explain",
                     "--jobs", "4"]) == 0
        out = capsys.readouterr().out
        assert "Execution(backend=processes, jobs=4" in out
        assert main(["query", str(demo_cohana), QUERY, "--explain",
                     "--jobs", "2", "--backend", "threads",
                     "--scan-mode", "compressed"]) == 0
        out = capsys.readouterr().out
        assert "Execution(backend=threads, jobs=2, " \
               "scan_mode=compressed)" in out

    def test_query_explain_operator_tree_counters(self, demo_cohana,
                                                  capsys):
        """--explain prints the physical operator tree, one line per
        operator, annotated with rows-in/rows-out and prune counts."""
        assert main(["query", str(demo_cohana), QUERY, "--explain"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("CohortAggregate(")
        assert "[kernel=vectorized]" in lines[0]
        assert " rows_out=" in lines[0]
        stripped = [line.lstrip() for line in lines]
        assert any(line.startswith("CohortProject(")
                   and " rows_in=" in line and " cohorts=" in line
                   for line in stripped)
        assert any(line.startswith("AgeSelect(")
                   and " rows_in=" in line and " rows_out=" in line
                   for line in stripped)
        assert any(line.startswith("BirthSelect(")
                   and " users_in=" in line and " users_out=" in line
                   for line in stripped)
        assert any(line.startswith("TableScan(")
                   and " chunks=" in line and " pruned=" in line
                   and " rows_out=" in line
                   for line in stripped)

    def test_query_processes_backend_matches_serial(self, demo_cohana,
                                                    capsys):
        assert main(["query", str(demo_cohana), QUERY,
                     "--backend", "serial"]) == 0
        serial = capsys.readouterr().out
        assert main(["query", str(demo_cohana), QUERY, "--jobs", "2",
                     "--backend", "processes"]) == 0
        assert capsys.readouterr().out == serial

    def test_query_iterator_matches_vectorized(self, demo_cohana,
                                               capsys):
        assert main(["query", str(demo_cohana), QUERY]) == 0
        vec = capsys.readouterr().out
        assert main(["query", str(demo_cohana), QUERY, "--executor",
                     "iterator"]) == 0
        assert capsys.readouterr().out == vec

    def test_query_time_cohorts_with_origin(self, demo_cohana, capsys):
        text = ('SELECT time, COHORTSIZE, AGE, UserCount() FROM D '
                'BIRTH FROM action = "launch" COHORT BY time UNIT week')
        assert main(["query", str(demo_cohana), text, "--origin",
                     "2013-05-19", "--age-unit", "week"]) == 0
        assert "2013-05" in capsys.readouterr().out

    def test_bad_query_text(self, demo_cohana, capsys):
        assert main(["query", str(demo_cohana),
                     "SELECT nothing sensible"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBench:
    # "parallel" was a beyond-paper experiment; perfbench measures it
    # now, so the name is as unknown as one that never existed.
    @pytest.mark.parametrize("name", ["fig99", "parallel"])
    def test_unknown_experiment(self, name, capsys):
        assert main(["bench", name]) == 2
        assert "unknown experiments" in capsys.readouterr().out


#: Packages only the paper-comparison and figure code may pull in: the
#: two non-intrusive schemes, their SQL stack, and the figures module.
_OFF_SERVING_PATH = ("relational", "columnar", "baselines", "mixed",
                     "sqlparser", "bench")


@pytest.mark.parametrize("module", ["repro.service.http", "repro.cli"])
def test_serving_import_closure(module):
    """Importing the serving tier (or the CLI, whose ``bench`` command
    imports lazily) loads none of the evaluation-only packages."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(*sys.modules)"],
        check=True, timeout=60, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    loaded = [m for m in out.stdout.split() if m.startswith("repro.")]
    assert "repro.cohana" in loaded
    assert [m for m in loaded
            if m.split(".")[1] in _OFF_SERVING_PATH] == []
