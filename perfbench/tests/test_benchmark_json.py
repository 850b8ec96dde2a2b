"""``BENCHMARK.json`` against the contract, and against what the
command actually prints."""

import json
import re
import subprocess
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def perfbench(*args):
    start = time.perf_counter()
    done = subprocess.run(
        [*BENCHMARK["command"], *args], cwd=ROOT, text=True,
        capture_output=True, timeout=170)
    return done, time.perf_counter() - start


def test_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end",
                                   "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in BENCHMARK["end_to_end"])
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    assert runs * (BENCHMARK["run_seconds"] + 15) <= 3420


def last_json(done):
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_run_prints_every_end_to_end_metric_with_its_unit():
    done, seconds = perfbench("--seed", "3", "--size", "smoke",
                              "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    assert seconds < 30
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(BENCHMARK["workloads"])
    for result in results:
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == expected
        assert all(v["value"] != 0 for v in result["metrics"].values())
    for workload in BENCHMARK["workloads"]:
        assert workload["name"] in done.stdout
    for name, unit in expected.items():
        assert re.search(rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}",
                         done.stdout), name


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_trace_prints_every_per_layer_metric(workload):
    done, seconds = perfbench("--workload", workload, "--seed", "3",
                              "--size", "smoke", "--trace", "1")
    result = last_json(done)
    assert seconds < 30
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == expected


def test_same_seed_same_exact_counters(tmp_path):
    exact = []
    for _ in range(2):
        done, _ = perfbench("--workload", "adhoc_scan", "--seed", "5",
                            "--size", "smoke", "--trace", "0")
        metrics = last_json(done)["metrics"]
        exact.append({k: metrics[k]["value"] for k in
                      ("bytes_per_row", "rows_scanned_per_read",
                       "ok_ops_share")})
    assert exact[0] == exact[1]
