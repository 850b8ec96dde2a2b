"""``calibrate``: measure run-to-run spread and derive the bounds.
``compare``: apply the bounds to two sets of runs.

A bound is the share of the parent's median by which a metric may get
worse before a change counts as a regression. It is calibrated, not
guessed: ``clamp(3 x IQR/median, floor, cap)`` over the calibration
runs, per metric and workload. ``BENCHMARK.json`` can carry one bound
per metric, so it carries the widest over the workloads;
``calibration.json`` keeps the per-workload bounds, and ``compare``
uses those. A timing metric whose spread itself exceeds the cap cannot
be gated at all: it is dropped from the end-to-end list (its
``bench.client`` twin in the traced run stays).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from perfbench import END_TO_END, WORKLOADS, stats
from perfbench.env import ROOT

BENCHMARK = ROOT / "BENCHMARK.json"
CALIBRATION = ROOT / "perfbench" / "calibration.json"

#: name -> (floor, cap) of its bound. The cap is the contract's 0.25.
#: The floor of a timing metric is 0.10: this host's speed drifts by
#: several percent between processes (README, "Noise rules"), and a
#: spread measured over ten runs is itself uncertain by a factor of two,
#: so a bound below that would fail on the next measurement. Counts
#: that are exact for a seed only move with the seed's data, so their
#: floor is low.
LIMITS = {
    "setup_s": (0.10, 0.25),
    "light_read_ms": (0.10, 0.25),
    "heavy_read_ms": (0.10, 0.25),
    "write_ms": (0.10, 0.25),
    "ops_per_s": (0.10, 0.25),
    "peak_rss_mb": (0.05, 0.25),
    "bytes_per_row": (0.01, 0.25),
    "ok_ops_share": (0.001, 0.001),
    "rows_scanned_per_read": (0.005, 0.25),
}
TIMING = ("light_read_ms", "heavy_read_ms", "write_ms", "ops_per_s")


def derived_bound(spread: float, floor: float, cap: float) -> float:
    return min(max(3.0 * spread, floor), cap)


def summarize(records: list[dict]) -> dict:
    """``{workload: {metric: {median, q1, q3, spread, runs}}}`` over
    untraced records."""
    out: dict = {}
    for workload in WORKLOADS:
        mine = [r for r in records
                if r["workload"] == workload and not r["traced"]]
        if not mine:
            continue
        out[workload] = {}
        for name in END_TO_END:
            values = [r["metrics"][name]["value"] for r in mine]
            if len(values) < 2:
                q1 = q2 = q3 = values[0]
                spread = 0.0
            else:
                q1, q2, q3 = stats.quartiles(values)
                spread = stats.spread(values)
            out[workload][name] = {
                "median": q2, "q1": q1, "q3": q3, "spread": spread,
                "runs": len(values)}
    return out


def calibrate(runs: int, seconds: float, first_seed: int,
              write: bool) -> int:
    from perfbench.cli import run_worker

    records = []
    for index in range(runs):
        seed = first_seed + index
        for workload in WORKLOADS:
            record = run_worker(workload, seed, seconds, 0, "full")
            if record is None or not record["correct"]:
                print(f"calibration run failed: {workload} seed {seed}",
                      file=sys.stderr)
                return 1
            records.append(record)
            print(f"run {index + 1}/{runs}  {workload}", file=sys.stderr)
    summary = summarize(records)
    bounds = {}
    demoted = []
    for name, (floor, cap) in LIMITS.items():
        widest = max(summary[w][name]["spread"] for w in summary)
        for workload in summary:
            row = summary[workload][name]
            row["bound"] = derived_bound(row["spread"], floor, cap)
        bounds[name] = max(summary[w][name]["bound"] for w in summary)
        if name in TIMING and widest > cap:
            demoted.append(name)
    # Set-up time is measured three times a run, not once a round: it
    # gets the widest bound of all.
    bounds["setup_s"] = max(bounds.values())
    calibration = {
        "runs": runs, "seconds": seconds,
        "seeds": [first_seed, first_seed + runs - 1],
        "env": records[0]["env"], "bounds": bounds, "demoted": demoted,
        "workloads": summary}
    print(render(summary))
    for name in demoted:
        print(f"DEMOTE {name}: its spread exceeds the cap on some "
              f"workload; not an end-to-end metric")
    if write:
        CALIBRATION.write_text(json.dumps(calibration, indent=1) + "\n")
        write_benchmark(bounds, demoted, seconds)
    return 0


def write_benchmark(bounds: dict, demoted: list[str],
                    seconds: float) -> None:
    """Rewrite the bounds (and the end-to-end list) of BENCHMARK.json;
    every other key stays as committed."""
    benchmark = json.loads(BENCHMARK.read_text())
    benchmark["run_seconds"] = int(seconds)
    benchmark["end_to_end"] = [
        {"name": name, "unit": unit, "better": better,
         "bound": round(bounds[name], 4)}
        for name, (unit, better) in END_TO_END.items()
        if name not in demoted]
    BENCHMARK.write_text(json.dumps(benchmark, indent=2) + "\n")


def render(summary: dict) -> str:
    lines = []
    for workload, metrics in summary.items():
        lines.append(workload)
        for name, row in metrics.items():
            lines.append(
                f"  {name:<24} median {row['median']:>12.6g}  "
                f"q1 {row['q1']:>12.6g}  q3 {row['q3']:>12.6g}  "
                f"spread {row['spread']:.4f}  bound {row['bound']:.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def load_records(path: Path) -> list[dict]:
    """Run records from one record file or a directory of them."""
    files = (sorted(path.glob("run-*.json")) if path.is_dir()
             else [path])
    return [json.loads(f.read_text()) for f in files]


def verdict(parent: dict, change: dict, better: str,
            bound: float) -> str:
    """``worse`` when the change's median is worse than the parent's by
    more than the bound; ``unresolved`` when either side's own spread
    is wider than the bound (the medians cannot be told apart that
    finely); else ``unchanged``."""
    base = parent["median"]
    delta = (change["median"] - base) / abs(base) if base else 0.0
    worse_by = delta if better == "lower" else -delta
    if worse_by > bound:
        return "worse"
    if max(parent["spread"], change["spread"]) > bound:
        return "unresolved"
    return "unchanged"


def compare(parent_path: Path, change_path: Path) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    gates = {m["name"]: m for m in benchmark["end_to_end"]}
    per_workload = (json.loads(CALIBRATION.read_text())["workloads"]
                    if CALIBRATION.exists() else {})
    parent = summarize(load_records(parent_path))
    change = summarize(load_records(change_path))
    regressions = 0
    print(f"{'workload':<20}{'metric':<24}{'parent':>12}{'change':>12}"
          f"{'delta':>9}{'bound':>8}  verdict")
    for workload in parent:
        if workload not in change:
            continue
        for name, gate in gates.items():
            a, b = parent[workload][name], change[workload][name]
            bound = per_workload.get(workload, {}).get(name, {}).get(
                "bound", gate["bound"])
            result = verdict(a, b, gate["better"], bound)
            regressions += result == "worse"
            delta = ((b["median"] - a["median"]) / abs(a["median"])
                     if a["median"] else 0.0)
            print(f"{workload:<20}{name:<24}{a['median']:>12.6g}"
                  f"{b['median']:>12.6g}{delta:>+9.3%}"
                  f"{bound:>8.3f}  {result}")
    return 1 if regressions else 0

