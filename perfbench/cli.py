"""Command line of the benchmark.

::

    python -m perfbench run --seed 1                  # all four workloads
    python -m perfbench run --workload adhoc_scan --seed 1 --seconds 12
    python -m perfbench trace --workload adhoc_scan --seed 1
    python -m perfbench calibrate --runs 8
    python -m perfbench compare A.json B.json

``run`` starts every workload in a fresh subprocess, checks every
answer, prints every metric by name with its unit and, as the last
line of each workload's output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. It exits non-zero
when any op failed or any answer was wrong. ``trace`` (= ``run
--trace 1``) is the separate traced run that yields the per-layer
metrics. This process imports nothing of ``repro``; the subprocess
does.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from perfbench import WORKLOADS
from perfbench.env import OUT, ROOT, child_env

BENCHMARK = ROOT / "BENCHMARK.json"

DEFAULT_SECONDS = 12


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("::")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def run_options(p, trace_default):
        p.add_argument("--workload", choices=WORKLOADS, default=None,
                       help="one workload (default: all four)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                       help="length of the timed section on the "
                            "reference box; sets the number of rounds")
        p.add_argument("--trace", type=int, choices=(0, 1),
                       default=trace_default)
        p.add_argument("--size", choices=("full", "smoke"),
                       default="full")

    run_options(sub.add_parser(
        "run", help="measure the end-to-end metrics"), 0)
    run_options(sub.add_parser(
        "trace", help="the traced run: per-layer metrics"), 1)
    worker = sub.add_parser("worker")  # internal: one run, in-process
    run_options(worker, 0)
    worker.add_argument("--record", required=True)

    p = sub.add_parser("calibrate", help="run the suite repeatedly and "
                                         "derive the bounds")
    p.add_argument("--runs", type=int, default=8)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--write", action=argparse.BooleanOptionalAction,
                   default=True, help="write calibration.json and the "
                                      "bounds in BENCHMARK.json")

    p = sub.add_parser("compare", help="apply the bounds to two sets "
                                       "of run records")
    p.add_argument("parent", help="a record, a directory of records or "
                                  "a calibration.json")
    p.add_argument("change")
    return parser


def next_record_path(seed: int) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    n = 0
    while (OUT / f"run-{seed}-{n}.json").exists():
        n += 1
    return OUT / f"run-{seed}-{n}.json"


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               size: str) -> dict | None:
    """One workload in a fresh subprocess; its record, or None when
    the subprocess failed. The subprocess leads its own process group
    so nothing it started can outlive an interrupted run."""
    record_path = next_record_path(seed)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, "-m", "perfbench", "worker",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--size", size, "--record", str(record_path)]
    process = subprocess.Popen(command, cwd=ROOT, env=child_env(tmp),
                               stdout=sys.stderr, start_new_session=True)
    try:
        code = process.wait()
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if code != 0 or not record_path.exists():
        return None
    return json.loads(record_path.read_text())


def gated_metrics(record: dict) -> dict:
    """The metrics of a record that ``BENCHMARK.json`` lists: an
    untraced run reports exactly the end-to-end list (``calibrate``
    drops a metric too noisy to gate on), a traced run every per-layer
    metric."""
    if record["traced"] or not BENCHMARK.exists():
        return record["metrics"]
    listed = [m["name"] for m in
              json.loads(BENCHMARK.read_text())["end_to_end"]]
    return {name: record["metrics"][name] for name in listed}


def metric_lines(metrics: dict) -> list[str]:
    """``name value unit`` for every metric."""
    width = max(len(name) for name in metrics)
    return [f"  {name:<{width}}  {m['value']:>14.6g}  {m['unit']}"
            for name, m in metrics.items()]


def _run(args) -> int:
    status = 0
    for workload in ([args.workload] if args.workload else WORKLOADS):
        record = run_worker(workload, args.seed, args.seconds,
                            args.trace, args.size)
        if record is None:
            print(f"{workload}: the run did not finish",
                  file=sys.stderr)
            return 1
        metrics = gated_metrics(record)
        print(f"{workload}  seed={args.seed}  rounds={record['rounds']}"
              f"  {'traced' if args.trace else 'untraced'}")
        print("\n".join(metric_lines(metrics)))
        for failure in (*record["failed_checks"],
                        *record["failed_ops"]):
            print(f"  FAILED {failure}", file=sys.stderr)
        if record["env"]["noisy_host"]:
            print("  load average above the core count: timings of "
                  "this run are suspect", file=sys.stderr)
        if not record["correct"]:
            status = 1
        print(json.dumps({"correct": record["correct"],
                          "attempted": record["attempted"],
                          "failed": record["failed"],
                          "metrics": metrics}))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command in ("run", "trace"):
        return _run(args)
    if args.command == "worker":
        from perfbench import runner
        runner.run(args.workload, args.seed, args.seconds,
                   bool(args.trace), args.size, Path(args.record))
        return 0
    from perfbench import calibrate
    if args.command == "calibrate":
        return calibrate.calibrate(args.runs, args.seconds,
                                   args.first_seed, args.write)
    return calibrate.compare(Path(args.parent), Path(args.change))
