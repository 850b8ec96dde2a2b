"""End-to-end reproductions of the paper's evaluation figures.

Each ``figXX_*`` function runs the experiment at laptop scale and returns
:class:`Report` objects whose series mirror the lines of the paper's
plot. ``python -m repro bench [names]`` prints them and EXPERIMENTS.md
records the measured shapes against the paper's. Engine features beyond
the paper (parallel scans, shards, views, compaction, serving) are
measured by ``perfbench/``, not here.

Scales default to {1, 2, 4, 8} (the paper sweeps 1..64 on a C++ engine;
pure Python needs smaller absolute sizes, the *trends* are the point).
Chunk sizes default to {256, 1K, 4K, 16K} rows — the paper's 16K..1M
divided by 64, keeping the ratio between chunk size and dataset size
comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines import prepare_system
from repro.cohana import CohanaEngine
from repro.cohort import NEVER_BORN, birth_times
from repro.datagen import BIRTH_ACTIONS, GameConfig, generate, scale_dataset
from repro.schema import parse_timestamp
from repro.storage import collect_stats, compress
from repro.table import ActivityTable
from repro.workloads import queries as W

DEFAULT_SCALES = (1, 2, 4, 8)
DEFAULT_CHUNK_ROWS = (256, 1024, 4096, 16384)
TABLE = "GameActions"
_START = GameConfig().start

_DATASETS: dict[int, ActivityTable] = {}
_ENGINES: dict[tuple, CohanaEngine] = {}
_SYSTEMS: dict[tuple, object] = {}


# ---------------------------------------------------------------------------
# Harness: dataset, timing, figure-style reports
# ---------------------------------------------------------------------------


def dataset(scale: int = 1) -> ActivityTable:
    """The benchmark dataset at ``scale``: the 57-user seed-7 game log,
    replicated ``scale`` times (cached per process)."""
    if 1 not in _DATASETS:
        _DATASETS[1] = generate(GameConfig(n_users=57, seed=7))
    if scale not in _DATASETS:
        _DATASETS[scale] = scale_dataset(_DATASETS[1], scale)
    return _DATASETS[scale]


def time_call(fn, repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock seconds for ``fn()``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Series:
    """One line of a figure: a label plus (x, y) points."""

    label: str
    points: list[tuple] = field(default_factory=list)

    def add(self, x, y) -> None:
        self.points.append((x, y))

    def y_at(self, x):
        for px, py in self.points:
            if px == x:
                return py
        return None


@dataclass
class Report:
    """A figure/table reproduction: titled series over a shared x-axis."""

    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)

    def series_named(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        s = Series(label)
        self.series.append(s)
        return s

    def xs(self) -> list:
        seen: list = []
        for s in self.series:
            for x, _ in s.points:
                if x not in seen:
                    seen.append(x)
        return seen

    def to_text(self) -> str:
        """Render as an aligned table: one row per series, one column
        per x value (the shape the paper's figures plot)."""
        xs = self.xs()
        header = [f"{self.x_label}="] + [str(x) for x in xs]
        rows = [[s.label] + [_fmt(s.y_at(x)) for x in xs]
                for s in self.series]
        widths = [max(len(header[i]),
                      *(len(r[i]) for r in rows)) if rows else
                  len(header[i]) for i in range(len(header))]
        lines = [f"== {self.title} ==",
                 f"   ({self.y_label})"]
        lines.append("  ".join(h.ljust(widths[i])
                               for i, h in enumerate(header)))
        lines.append("-" * (sum(widths) + 2 * len(widths)))
        for row in rows:
            lines.append("  ".join(c.ljust(widths[i])
                                   for i, c in enumerate(row)))
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != 0 and abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:,.4f}".rstrip("0").rstrip(".")
    return f"{value:,}"


def cohana_engine(scale: int, chunk_rows: int) -> CohanaEngine:
    """A COHANA engine with the scale-``scale`` dataset loaded
    (cached per process)."""
    key = (scale, chunk_rows)
    if key not in _ENGINES:
        engine = CohanaEngine()
        engine.create_table(TABLE, dataset(scale),
                            target_chunk_rows=chunk_rows)
        _ENGINES[key] = engine
    return _ENGINES[key]


def prepared_system(label: str, scale: int, chunk_rows: int = 4096):
    """A ready-to-query evaluation system (cached per process)."""
    key = (label, scale, chunk_rows)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = prepare_system(
            label, dataset(scale), birth_actions=BIRTH_ACTIONS,
            table_name=TABLE, chunk_rows=chunk_rows)
    return _SYSTEMS[key]


def _main_query(name: str) -> str:
    return W.MAIN_QUERIES[name](TABLE)


# ---------------------------------------------------------------------------
# Figure 6: COHANA under varying chunk size
# ---------------------------------------------------------------------------


def fig06_chunk_size(scales=DEFAULT_SCALES, chunk_rows=DEFAULT_CHUNK_ROWS,
                     query_names=("Q1", "Q2", "Q3", "Q4"),
                     repeat: int = 3) -> list[Report]:
    """Query time vs scale, one line per chunk size, one report per
    query (Figure 6a-d)."""
    reports = []
    for qname in query_names:
        report = Report(title=f"Figure 6 ({qname}): COHANA time vs "
                              f"chunk size", x_label="scale",
                        y_label="seconds")
        for rows in chunk_rows:
            series = report.series_named(f"chunk={rows}")
            for scale in scales:
                engine = cohana_engine(scale, rows)
                text = _main_query(qname)
                series.add(scale,
                           time_call(lambda: engine.query(text),
                                     repeat=repeat))
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Figure 7: storage space vs chunk size
# ---------------------------------------------------------------------------


def fig07_storage(scales=DEFAULT_SCALES,
                  chunk_rows=DEFAULT_CHUNK_ROWS) -> Report:
    """Compressed size (KiB) vs scale, one line per chunk size."""
    report = Report(title="Figure 7: storage space vs chunk size",
                    x_label="scale", y_label="KiB compressed")
    for rows in chunk_rows:
        series = report.series_named(f"chunk={rows}")
        for scale in scales:
            stats = collect_stats(cohana_engine(scale, rows).table(TABLE))
            series.add(scale, round(stats.total_bytes / 1024, 2))
    return report


# ---------------------------------------------------------------------------
# Figure 8: effect of birth selection (Q5/Q6 vs birth CDF)
# ---------------------------------------------------------------------------


def fig08_birth_selection(days=(1, 3, 5, 8, 12, 17, 23, 30, 39),
                          chunk_rows: int = 4096,
                          repeat: int = 3) -> Report:
    """Q5/Q6 time (normalized by Q1/Q3) against the birth CDF."""
    engine = cohana_engine(1, chunk_rows)
    table = dataset(1)
    base_q1 = time_call(lambda: engine.query(_main_query("Q1")),
                        repeat=repeat)
    base_q3 = time_call(lambda: engine.query(_main_query("Q3")),
                        repeat=repeat)
    births = birth_times(table, "launch")
    start = parse_timestamp(_START)
    report = Report(title="Figure 8: effect of birth selection",
                    x_label="day", y_label="normalized time / CDF")
    cdf = report.series_named("birth CDF")
    sq5 = report.series_named("Q5 (norm. by Q1)")
    sq6 = report.series_named("Q6 (norm. by Q3)")
    total_users = len(births)
    for day in days:
        d2 = W.day_offset(_START, day)
        born = sum(1 for t in births.values()
                   if t != NEVER_BORN and t <= start + day * 86400)
        cdf.add(day, round(born / total_users, 3))
        t5 = time_call(lambda: engine.query(W.q5(_START, d2, TABLE)),
                       repeat=repeat)
        t6 = time_call(lambda: engine.query(W.q6(_START, d2, TABLE)),
                       repeat=repeat)
        sq5.add(day, round(t5 / base_q1, 3))
        sq6.add(day, round(t6 / base_q3, 3))
    return report


# ---------------------------------------------------------------------------
# Figure 9: effect of age selection (Q7/Q8)
# ---------------------------------------------------------------------------


def fig09_age_selection(ages=(1, 2, 4, 6, 8, 10, 12, 14),
                        chunk_rows: int = 4096,
                        repeat: int = 3) -> Report:
    """Q7/Q8 time normalized by Q1/Q3, varying the age cutoff."""
    engine = cohana_engine(1, chunk_rows)
    base_q1 = time_call(lambda: engine.query(_main_query("Q1")),
                        repeat=repeat)
    base_q3 = time_call(lambda: engine.query(_main_query("Q3")),
                        repeat=repeat)
    report = Report(title="Figure 9: effect of age selection",
                    x_label="age(day)", y_label="normalized time")
    sq7 = report.series_named("Q7 (norm. by Q1)")
    sq8 = report.series_named("Q8 (norm. by Q3)")
    for g in ages:
        t7 = time_call(lambda g=g: engine.query(W.q7(g, TABLE)),
                       repeat=repeat)
        t8 = time_call(lambda g=g: engine.query(W.q8(g, TABLE)),
                       repeat=repeat)
        sq7.add(g, round(t7 / base_q1, 3))
        sq8.add(g, round(t8 / base_q3, 3))
    return report


# ---------------------------------------------------------------------------
# Figure 10: materialized view generation time
# ---------------------------------------------------------------------------


def fig10_mv_generation(scales=DEFAULT_SCALES,
                        chunk_rows: int = 4096) -> Report:
    """MV build time (PG / MonetDB stand-ins) vs COHANA compression."""
    from repro.baselines import MvScheme
    from repro.relational import Database

    report = Report(title="Figure 10: time for generating the MV",
                    x_label="scale", y_label="seconds")
    for label, executor in (("PG", "rows"), ("MONET", "columnar")):
        series = report.series_named(label)
        for scale in scales:
            table = dataset(scale)

            def build(executor=executor, table=table):
                db = Database(executor=executor)
                db.register_activity_table(TABLE, table)
                MvScheme(db, TABLE, table.schema).prepare("launch")

            series.add(scale, time_call(build, repeat=1))
    series = report.series_named("COHANA")
    for scale in scales:
        table = dataset(scale)
        series.add(scale, time_call(
            lambda: compress(table, target_chunk_rows=chunk_rows),
            repeat=1))
    return report


# ---------------------------------------------------------------------------
# Figure 11: comparative study
# ---------------------------------------------------------------------------

FIG11_SYSTEMS = ("COHANA", "MONET-M", "MONET-S", "PG-M", "PG-S")

#: Largest scale each system runs at by default. The row engine becomes
#: impractical quickly — mirroring the paper, where Postgres could not
#: even build the scale-64 MV before running out of disk.
FIG11_MAX_SCALE = {"PG-S": 2, "PG-M": 4}


def fig11_comparison(scales=DEFAULT_SCALES, systems=FIG11_SYSTEMS,
                     query_names=("Q1", "Q2", "Q3", "Q4"),
                     chunk_rows: int = 4096,
                     repeat: int = 1,
                     max_scale: dict | None = None) -> list[Report]:
    """Query time per evaluation scheme (Figure 11a-d)."""
    caps = FIG11_MAX_SCALE if max_scale is None else max_scale
    reports = []
    for qname in query_names:
        report = Report(title=f"Figure 11 ({qname}): comparison of "
                              f"evaluation schemes", x_label="scale",
                        y_label="seconds")
        for label in systems:
            series = report.series_named(label)
            for scale in scales:
                if scale > caps.get(label, max(scales)):
                    continue
                system = prepared_system(label, scale, chunk_rows)
                query = W.bind(_main_query(qname),
                               dataset(scale).schema)
                series.add(scale, time_call(lambda: system.run(query),
                                            repeat=repeat))
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Ablations (ours): executor / push-down / pruning
# ---------------------------------------------------------------------------


def ablations(scale: int = 8, chunk_rows: int = 1024,
              repeat: int = 3) -> Report:
    """COHANA design-choice ablations on Q1 and Q4."""
    engine = cohana_engine(scale, chunk_rows)
    report = Report(title="Ablations: COHANA design choices",
                    x_label="query", y_label="seconds")
    variants = (
        ("vectorized", dict(executor="vectorized")),
        ("iterator (Algs 1-2)", dict(executor="iterator")),
        ("no push-down", dict(executor="vectorized", pushdown=False)),
        ("no chunk pruning", dict(executor="vectorized", prune=False)),
    )
    for label, kw in variants:
        series = report.series_named(label)
        for qname in ("Q1", "Q2", "Q4"):
            text = _main_query(qname)
            series.add(qname, time_call(
                lambda text=text, kw=kw: engine.query(text, **kw),
                repeat=repeat))
    return report


#: ``repro bench`` names -> zero-arg callable returning a Report or a
#: list of Reports.
EXPERIMENTS = {
    "fig06": fig06_chunk_size,
    "fig07": fig07_storage,
    "fig08": fig08_birth_selection,
    "fig09": fig09_age_selection,
    "fig10": fig10_mv_generation,
    "fig11": fig11_comparison,
    "ablations": ablations,
}


def run_and_print(names: list[str] | None = None) -> int:
    """Run the named experiments (all by default) and print reports.

    Returns a process exit code (2 on unknown names).
    """
    selected = names or list(EXPERIMENTS)
    unknown = [n for n in selected if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"available: {list(EXPERIMENTS)}")
        return 2
    for name in selected:
        start = time.perf_counter()
        outcome = EXPERIMENTS[name]()
        elapsed = time.perf_counter() - start
        reports = outcome if isinstance(outcome, list) else [outcome]
        for report in reports:
            print()
            print(report.to_text())
        print(f"\n[{name} finished in {elapsed:.1f}s]")
    return 0
