"""Tests for the experiment report runner behind ``repro bench``."""

import pytest

from repro.bench import experiments
from repro.bench.experiments import Report, run_and_print


def _fake_report():
    report = Report(title="fake", x_label="x", y_label="y")
    report.series_named("line").add(1, 0.5)
    return report


def _fake_list():
    return [_fake_report(), _fake_report()]


@pytest.fixture
def fake_registry(monkeypatch):
    monkeypatch.setattr(experiments, "EXPERIMENTS",
                        {"one": _fake_report, "many": _fake_list})


class TestRunAndPrint:
    def test_runs_all_by_default(self, fake_registry, capsys):
        assert run_and_print() == 0
        out = capsys.readouterr().out
        assert out.count("== fake ==") == 3
        assert "[one finished" in out
        assert "[many finished" in out

    def test_runs_selected(self, fake_registry, capsys):
        assert run_and_print(["one"]) == 0
        out = capsys.readouterr().out
        assert out.count("== fake ==") == 1

    def test_unknown_name(self, fake_registry, capsys):
        assert run_and_print(["nope"]) == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_list_results_flattened(self, fake_registry, capsys):
        assert run_and_print(["many"]) == 0
        assert capsys.readouterr().out.count("== fake ==") == 2
