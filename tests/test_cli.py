"""End-to-end tests for the command-line interface."""

import io
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


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

    def test_ingest_of_a_bad_cell_is_an_error_line(self, demo_csv,
                                                   tmp_path, capsys):
        lines = demo_csv.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",abc"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        table = tmp_path / "T"
        assert main(["ingest", str(bad), str(table)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}:3: column 'gold': bad int value 'abc'\n"
        assert not table.exists()

    def test_compress_missing_input(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["compress", str(tmp_path / "nope.csv"),
                  str(tmp_path / "out.cohana")])

    def test_inspect_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cohana"
        bad.write_bytes(b"not a cohana file at all")
        assert main(["inspect", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestCountFlags:
    """A count below 1 is refused by argparse (exit 2) before any input
    is read: the input paths here do not exist, and a served stdin
    session never starts."""

    @pytest.mark.parametrize("argv, flag", [
        (["compress", "in.csv", "out.cohana", "--chunk-rows", "0"],
         "--chunk-rows"),
        (["ingest", "in.csv", "table", "--chunk-rows", "-1"],
         "--chunk-rows"),
        (["compact", "table", "--chunk-rows", "0"], "--chunk-rows"),
        (["serve", "table", "--max-inflight", "0"], "--max-inflight"),
        (["serve", "table", "--jobs", "0"], "--jobs"),
        (["query", "table", "SELECT", "--jobs", "0"], "--jobs"),
    ])
    def test_below_one_exits_2(self, tmp_path, monkeypatch, capsys,
                               argv, flag):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(".stats\n"))
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: argument {flag}: must be >= 1, got {argv[-1]}"
                in captured.err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--max-inflight", "3"), ("--queue-depth", "5"),
        ("--tenant-quota", "2"), ("--tenant-rate", "2.5"),
        ("--tenant-burst", "4"), ("--timeout", "9.5"),
    ])
    def test_http_only_flag_without_http_exits_2(self, tmp_path,
                                                 monkeypatch, capsys,
                                                 flag, value):
        """Without --http, serve reads stdin and no admission knob
        applies: naming one is refused before any input is read."""
        monkeypatch.setattr("sys.stdin", io.StringIO(".stats\n"))
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", str(tmp_path / "table"), flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} applies only with --http" in captured.err

    def test_not_a_number_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compress", "in.csv", "out.cohana", "--chunk-rows", "x"])
        assert exit_info.value.code == 2
        assert "argument --chunk-rows: invalid int value: 'x'" in \
            capsys.readouterr().err

    def test_one_is_accepted(self, demo_csv, tmp_path):
        assert main(["compress", str(demo_csv), str(tmp_path / "o.cohana"),
                     "--chunk-rows", "1"]) == 0


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
        assert "scan_mode=compressed" in out  # on the TableScan line
        assert "Execution(backend=serial, jobs=1)" in out

    def test_query_explain_shows_jobs_and_backend(self, demo_cohana,
                                                  capsys):
        """--explain reflects --jobs/--backend/--scan-mode instead of
        ignoring them; jobs>1 on an on-disk table auto-resolves to
        processes."""
        assert main(["query", str(demo_cohana), QUERY, "--explain",
                     "--jobs", "4"]) == 0
        out = capsys.readouterr().out
        assert "Execution(backend=processes, jobs=4" in out
        assert main(["query", str(demo_cohana), QUERY, "--explain",
                     "--jobs", "2", "--backend", "threads",
                     "--scan-mode", "decoded"]) == 0
        out = capsys.readouterr().out
        assert "scan_mode=decoded" in out
        assert "Execution(backend=threads, jobs=2)" in out

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

    def test_executor_choices_are_the_kernel_registry(self, demo_cohana,
                                                      capsys):
        """``--executor`` offers every registered kernel, like
        ``--backend`` offers BACKENDS, and rejects anything else."""
        from repro.cohana.pipeline import KERNELS, ChunkKernel, \
            register_kernel
        assert main(["query", str(demo_cohana), QUERY]) == 0
        vec = capsys.readouterr().out
        register_kernel(ChunkKernel(name="relay",
                                    scan=KERNELS["vectorized"].scan))
        try:
            assert main(["query", str(demo_cohana), QUERY, "--executor",
                         "relay"]) == 0
            assert capsys.readouterr().out == vec
            serve = build_parser().parse_args(
                ["serve", str(demo_cohana), "--executor", "relay"])
            assert serve.executor == "relay"
        finally:
            del KERNELS["relay"]
        for command in (["query", str(demo_cohana), QUERY],
                        ["serve", str(demo_cohana)]):
            with pytest.raises(SystemExit):
                main([*command, "--executor", "relay"])
            assert "invalid choice" in capsys.readouterr().err

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

    def test_bad_literal_is_an_error_line(self, demo_cohana, capsys):
        text = ('SELECT country, COHORTSIZE, AGE, UserCount() FROM D '
                'BIRTH FROM action = "launch" AND gold = "abc" '
                'COHORT BY country')
        assert main(["query", str(demo_cohana), text]) == 1
        err = capsys.readouterr().err
        assert err == "error: bad int value 'abc'\n"


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
