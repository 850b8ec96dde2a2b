"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write the synthetic mobile-game dataset to CSV;
* ``compress`` — compress an activity CSV into a ``.cohana`` file;
* ``ingest``   — append a CSV batch to a *sharded* table directory as
  a new shard (``--append``; existing shard bytes are never rewritten);
* ``inspect``  — print storage statistics of a ``.cohana`` file;
* ``query``    — run a cohort query against a ``.cohana`` file or
  sharded table directory (through the caching query service;
  ``--no-cache`` bypasses it);
* ``serve``    — serve statements from stdin (a terminal or a pipe)
  against a ``.cohana`` file or sharded table directory, in concurrent
  batches: cohort queries, ``CREATE`` / ``DROP MATERIALIZED VIEW`` and
  meta commands such as ``.views`` / ``.view <name>``;
* ``view``     — manage materialized views of a sharded table directory
  (``create`` / ``list`` / ``refresh`` / ``drop`` / ``serve``); view
  definitions and per-shard partials persist next to MANIFEST.json, so
  refreshes after an append scan only the new shards;
* ``bench``    — regenerate the paper's evaluation figures.

The CSV commands assume the benchmark's game schema (player / time /
action / country / city / role / session_length / gold); library users
with other schemas use the Python API directly.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.cohana import BACKENDS, KERNELS, SCAN_MODES, CohanaEngine
from repro.cohana.parser import (
    ParsedCohortQuery,
    ParsedCreateView,
    ParsedDropView,
    parse_statement,
)
from repro.cohana.pipeline import table_segments
from repro.datagen import GameConfig, game_schema, generate, scale_dataset
from repro.errors import ReproError
from repro.schema import parse_timestamp
from repro.service import QueryService
from repro.storage import collect_stats, compress, is_sharded_path, load, save
from repro.table import read_csv, write_csv


def _at_least_one(text: str) -> int:
    """An argparse type for a count that must be 1 or more, so a bad
    value exits 2 before any input is read."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COHANA cohort query engine "
                    "(reproduction of Jiang et al., VLDB 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate the game dataset")
    p.add_argument("output", help="output CSV path")
    p.add_argument("--users", type=int, default=57)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale", type=int, default=1,
                   help="paper-style scale factor (user replication)")

    p = sub.add_parser("compress", help="compress a CSV into .cohana")
    p.add_argument("input", help="activity CSV (game schema)")
    p.add_argument("output", help="output .cohana path")
    p.add_argument("--chunk-rows", type=_at_least_one, default=65536)

    p = sub.add_parser("ingest", help="ingest a CSV batch into a "
                                      "sharded table directory")
    p.add_argument("input", help="activity CSV (game schema)")
    p.add_argument("table", help="sharded table directory (created on "
                                 "first ingest; holds MANIFEST.json + "
                                 "shard-NNNNNN.cohana files)")
    p.add_argument("--append", action="store_true",
                   help="add a new shard to an existing table without "
                        "rewriting any existing shard bytes (required "
                        "when the table already exists; the batch's "
                        "users must be new to the table)")
    p.add_argument("--chunk-rows", type=_at_least_one, default=65536)

    p = sub.add_parser("compact", help="merge small shards of a "
                                       "sharded table into one")
    p.add_argument("table", help="sharded table directory")
    p.add_argument("--small-rows", type=int, default=None,
                   help="merge only shards at or under this many rows "
                        "(default: merge all shards)")
    p.add_argument("--chunk-rows", type=_at_least_one, default=None,
                   help="target chunk rows for the merged shard "
                        "(default: the table's setting)")
    p.add_argument("--no-gc", action="store_true",
                   help="leave superseded shard files on disk instead "
                        "of garbage-collecting the unpinned ones")

    p = sub.add_parser("retention", help="drop whole shards older "
                                         "than a time cutoff")
    p.add_argument("table", help="sharded table directory")
    p.add_argument("--older-than", required=True,
                   help="cutoff timestamp (e.g. 2013-05-21, "
                        "2013-05-21 14:00, or 2013/05/21:1400); a "
                        "shard is dropped when every tuple in it is "
                        "older")
    p.add_argument("--no-gc", action="store_true",
                   help="leave dropped shard files on disk")

    p = sub.add_parser("inspect", help="storage stats of a .cohana file")
    p.add_argument("input", help=".cohana path")

    p = sub.add_parser("query", help="run a cohort query")
    p.add_argument("input", help=".cohana file or sharded table dir")
    p.add_argument("text", help="cohort query text (FROM names the "
                                "table this file is registered as)")
    p.add_argument("--executor", default="vectorized",
                   choices=sorted(KERNELS))
    p.add_argument("--jobs", type=_at_least_one, default=1,
                   help="parallel scan workers (default 1)")
    p.add_argument("--backend", default=None, choices=BACKENDS,
                   help="scan backend (default with --jobs > 1: "
                        "processes, which mmaps the .cohana file in "
                        "each worker)")
    p.add_argument("--scan-mode", default="compressed", choices=SCAN_MODES,
                   help="predicate evaluation domain: 'compressed' "
                        "(default) evaluates on the encoded chunks with "
                        "zone-map pruning, 'decoded' materializes codes "
                        "first")
    p.add_argument("--age-unit", default="day")
    p.add_argument("--origin", default=None,
                   help="time-bin origin date for COHORT BY time")
    p.add_argument("--explain", action="store_true",
                   help="print the plan (incl. the cache disposition) "
                        "instead of executing")
    p.add_argument("--pivot", action="store_true",
                   help="print the pivoted cohort report too")
    p.add_argument("--cache", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="route the query through the result cache "
                        "(--no-cache executes directly; a one-shot "
                        "process cannot hit, but --explain shows the "
                        "disposition either way)")

    p = sub.add_parser("serve", help="serve cohort queries from stdin "
                                     "(a terminal or a pipe) or over "
                                     "HTTP (--http HOST:PORT)")
    p.add_argument("input", help=".cohana file or sharded table dir")
    p.add_argument("--http", default=None, metavar="HOST:PORT",
                   help="serve over HTTP instead of stdin: an asyncio "
                        "frontend with per-tenant admission control "
                        "(POST /query /batch /ingest, GET /explain "
                        "/stats /healthz); port 0 picks a free port; "
                        "SIGTERM drains gracefully")
    # The HTTP frontend's admission knobs: each defaults to
    # AdmissionConfig's, and without --http each is refused.
    p.add_argument("--max-inflight", type=_at_least_one,
                   help="HTTP: requests executing at once, the engine "
                        "thread-pool size (default 8)")
    p.add_argument("--queue-depth", type=int,
                   help="HTTP: admitted requests allowed to wait for "
                        "an execution slot; beyond this the request "
                        "is shed with 429 (default 16)")
    p.add_argument("--tenant-quota", type=int,
                   help="HTTP: per-tenant (X-Tenant header) cap on "
                        "in-flight requests (default 8)")
    p.add_argument("--tenant-rate", type=float,
                   help="HTTP: per-tenant token-bucket rate limit in "
                        "requests/second (default: off)")
    p.add_argument("--tenant-burst", type=int,
                   help="HTTP: per-tenant token-bucket capacity "
                        "(default 8)")
    p.add_argument("--timeout", type=float, dest="timeout_seconds",
                   help="HTTP: per-request budget in seconds covering "
                        "queue wait + execution (default 30)")
    p.add_argument("--jobs", type=_at_least_one, default=1,
                   help="parallel scan workers per query, as for "
                        "'query' (default 1: serial)")
    p.add_argument("--executor", default="vectorized",
                   choices=sorted(KERNELS))
    p.add_argument("--scan-mode", default="compressed", choices=SCAN_MODES)
    p.add_argument("--cache", action=argparse.BooleanOptionalAction,
                   default=True, help="serve repeated queries from the "
                                      "result cache (default on)")
    p.add_argument("--stats", action="store_true",
                   help="print a [disposition, seconds] line after "
                        "each query result")
    p.add_argument("--age-unit", default="day")
    p.add_argument("--origin", default=None,
                   help="time-bin origin date for COHORT BY time")

    p = sub.add_parser("view", help="manage materialized views of a "
                                    "table (persisted next to a "
                                    "sharded table's MANIFEST.json)")
    vsub = p.add_subparsers(dest="view_command", required=True)

    v = vsub.add_parser("create", help="register + refresh a view")
    v.add_argument("input", help="sharded table dir")
    v.add_argument("text", help="CREATE MATERIALIZED VIEW <name> AS "
                                "<cohort query>")
    v.add_argument("--age-unit", default="day")
    v.add_argument("--origin", default=None,
                   help="time-bin origin date for COHORT BY time")

    v = vsub.add_parser("list", help="list persisted views and their "
                                     "per-shard freshness")
    v.add_argument("input", help="sharded table dir")

    v = vsub.add_parser("refresh", help="incrementally refresh views "
                                        "(scans only new shards)")
    v.add_argument("input", help="sharded table dir")
    v.add_argument("names", nargs="*",
                   help="view names (default: all persisted views)")

    v = vsub.add_parser("drop", help="drop a view (definition and "
                                     "partial files)")
    v.add_argument("input", help="sharded table dir")
    v.add_argument("name", help="view name")

    v = vsub.add_parser("serve", help="serve a view: incremental "
                                      "refresh + re-merge of cached "
                                      "per-shard partials")
    v.add_argument("input", help="sharded table dir")
    v.add_argument("name", help="view name")
    v.add_argument("--pivot", action="store_true",
                   help="print the pivoted cohort report too")
    v.add_argument("--stats", action="store_true",
                   help="print a [disposition, shards scanned/total, "
                        "seconds] line")

    p = sub.add_parser("bench", help="run the figure experiments")
    p.add_argument("names", nargs="*", help="experiment names "
                                            "(default: all)")
    return parser


#: ``serve``'s HTTP-only flags and the AdmissionConfig field each sets.
_ADMISSION_FLAGS = {"--max-inflight": "max_inflight",
                    "--queue-depth": "queue_depth",
                    "--tenant-quota": "tenant_quota",
                    "--tenant-rate": "tenant_rate",
                    "--tenant-burst": "tenant_burst",
                    "--timeout": "timeout_seconds"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and not args.http:
        for flag, field in _ADMISSION_FLAGS.items():
            if getattr(args, field) is not None:
                parser.error(f"{flag} applies only with --http")
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "generate":
        table = generate(GameConfig(n_users=args.users, seed=args.seed))
        table = scale_dataset(table, args.scale)
        write_csv(table, args.output)
        print(f"wrote {len(table)} tuples "
              f"({len(table.distinct_users())} users) to {args.output}")
        return 0
    if args.command == "compress":
        table = read_csv(args.input, game_schema())
        compressed = compress(table, target_chunk_rows=args.chunk_rows)
        n_bytes = save(compressed, args.output)
        print(f"compressed {len(table)} tuples into {args.output}: "
              f"{n_bytes} bytes, {compressed.n_chunks} chunks")
        return 0
    if args.command == "ingest":
        from pathlib import Path

        from repro.storage import (
            MANIFEST_NAME,
            append_shard,
            read_manifest,
        )

        table = read_csv(args.input, game_schema())
        directory = Path(args.table)
        exists = (directory / MANIFEST_NAME).is_file()
        if exists and not args.append:
            print(f"error: {directory} is already a sharded table; "
                  f"pass --append to add a shard", file=sys.stderr)
            return 1
        entry = append_shard(directory, table,
                             target_chunk_rows=args.chunk_rows)
        manifest = read_manifest(directory)
        total_rows = sum(s["n_rows"] for s in manifest["shards"])
        print(f"{'appended' if exists else 'created'} "
              f"{directory / entry['path']}: {entry['n_rows']} tuples, "
              f"{entry['n_chunks']} chunks, {entry['n_bytes']} bytes "
              f"(table: {len(manifest['shards'])} shards, "
              f"{total_rows} tuples)")
        return 0
    if args.command == "compact":
        from repro.storage import compact

        result = compact(args.table, small_rows=args.small_rows,
                         target_chunk_rows=args.chunk_rows,
                         gc=not args.no_gc)
        if not result.compacted:
            print(f"{args.table}: nothing to compact "
                  f"(generation {result.generation})")
            return 0
        print(f"compacted {len(result.merged)} shards of {args.table} "
              f"into {result.new_shard} ({result.n_rows} tuples); "
              f"generation {result.generation}, "
              f"{len(result.gc_removed)} file(s) garbage-collected")
        return 0
    if args.command == "retention":
        from repro.storage import prune_retention

        cutoff = parse_timestamp(args.older_than)
        result = prune_retention(args.table, older_than=cutoff,
                                 gc=not args.no_gc)
        if not result.pruned:
            print(f"{args.table}: no shard is entirely older than "
                  f"{args.older_than} (generation {result.generation})")
            return 0
        print(f"dropped {len(result.removed)} shard(s) of "
              f"{args.table} older than {args.older_than}; "
              f"{result.kept} shard(s) kept, generation "
              f"{result.generation}, {len(result.gc_removed)} file(s) "
              f"garbage-collected")
        return 0
    if args.command == "inspect":
        # A sharded table is inspected shard by shard: each has its
        # own dictionaries.
        for part in table_segments(load(args.input)):
            stats = collect_stats(part)
            print(f"{part.source_path}: {stats.n_rows} tuples, "
                  f"{stats.n_chunks} chunks "
                  f"(target {stats.target_chunk_rows} rows/chunk)")
            print(f"  total          {stats.total_bytes:>12,} bytes "
                  f"({stats.bits_per_tuple:.1f} bits/tuple)")
            print(f"  user RLE       {stats.user_rle_bytes:>12,} bytes")
            print(f"  global dicts   {stats.global_dict_bytes:>12,} "
                  f"bytes")
            for name in sorted(stats.columns):
                col = stats.columns[name]
                print(f"  {name:<14} {col.total_bytes:>12,} bytes "
                      f"[{col.kind}]")
        return 0
    if args.command == "query":
        service = _service(args, backend=args.backend)
        if args.explain:
            print(service.explain(args.text, analyze=True))
            return 0
        result = service.query(args.text)
        print(result.to_text())
        if args.pivot:
            print()
            print(result.pivot().to_text())
        return 0
    if args.command == "serve":
        return _serve(args)
    if args.command == "view":
        return _view_cmd(args)
    if args.command == "bench":
        from repro.bench.experiments import run_and_print
        return run_and_print(args.names)
    raise AssertionError(f"unhandled command {args.command!r}")


def _service(args, backend: str | None = None) -> QueryService:
    """The query service of ``query`` and ``serve``: an engine bound to
    ``args.input``, and every execution and parse option from ``args``."""
    return QueryService(
        CohanaEngine(source=args.input), enabled=args.cache,
        executor=args.executor, scan_mode=args.scan_mode, jobs=args.jobs,
        backend=backend, age_unit=args.age_unit,
        time_bin_origin=parse_timestamp(args.origin) if args.origin else 0)


def _attach_views(engine: CohanaEngine) -> bool:
    """Make the engine's persisted views reachable for a command that
    names no table (``view list``, ``.views``, DROP): register its
    source under the table its view definitions name, which re-attaches
    them. False when no table is registered and no view is persisted."""
    if engine.tables():
        return True
    from pathlib import Path

    from repro.views import VIEWS_DIRNAME, DiskViewStore
    definitions = DiskViewStore(
        Path(engine.source) / VIEWS_DIRNAME).load_definitions()
    if definitions:
        engine.resolve(definitions[0]["table"])
    return bool(definitions)


def _run_ddl(engine: CohanaEngine, parsed: ParsedCreateView
             | ParsedDropView, age_unit: str = "day",
             time_bin_origin: int = 0) -> None:
    """Execute one CREATE / DROP MATERIALIZED VIEW statement and print
    its outcome: the ``serve`` session's DDL and ``view create/drop``."""
    if isinstance(parsed, ParsedDropView):
        _attach_views(engine)
    out = engine.execute_statement(parsed, age_unit=age_unit,
                                   time_bin_origin=time_bin_origin)
    if isinstance(parsed, ParsedCreateView):
        status = engine.view_status(out.name)
        print(f"created view {out.name}: "
              f"{status['shards_cached']}/{status['shards_total']} "
              f"shard partials cached")
    else:
        print(f"{'dropped' if out else 'no such'} view {parsed.name}")


def _print_views(engine: CohanaEngine) -> None:
    """List the registered views and their per-shard freshness: the
    ``serve`` session's ``.views`` and ``view list``."""
    names = engine.views()
    if not names:
        print("no views registered")
    for name in names:
        s = engine.view_status(name)
        print(f"{s['name']}: table={s['table']} "
              f"shards={s['shards_cached']}/{s['shards_total']} "
              f"fingerprint={s['fingerprint'][:12]}")


def _serve_view(service: QueryService, name: str, show_stats: bool,
                pivot: bool = False) -> None:
    """Serve view ``name`` through the service and print its result:
    the ``serve`` session's ``.view`` and ``view serve``."""
    start = time.perf_counter()
    result, stats = service.serve_view(name)
    elapsed = time.perf_counter() - start
    print(result.to_text())
    if pivot:
        print()
        print(result.pivot().to_text())
    if show_stats:
        print(f"[{stats.cache_disposition} "
              f"shards {stats.shards_scanned}/"
              f"{stats.shards_total} {elapsed:.4f}s]")


def _stdin_lines(interactive: bool):
    """The stripped lines of stdin. On a terminal they are read after
    a ``cohana> `` prompt, and Ctrl-C ends them as EOF does."""
    if not interactive:
        yield from (raw.strip() for raw in sys.stdin)
        return
    while True:
        try:
            yield input("cohana> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return


def _serve(args) -> int:
    """The ``serve`` command: statements from stdin through the service
    (or over HTTP with ``--http``).

    A terminal and a pipe take the same statements through one loop:
    cohort queries and CREATE / DROP MATERIALIZED VIEW, which may span
    lines (ended by ``;`` or by parsing as a complete statement), and
    ``.help``'s meta commands. Statements are flushed at each meta
    command and at EOF, and on a terminal after every line. A flush
    runs its queries as one batch, in order (a repeated query is a
    cache hit), DDL as a barrier; a failing statement prints the
    one-line rendering of the error HTTP sends as a 400
    (:mod:`repro.service.protocol`) and the rest still run.
    """
    import json

    if args.http:
        return _serve_http(args)

    from repro.service.protocol import StatementAccumulator, format_error

    service = _service(args)
    engine = service.engine
    interactive = sys.stdin.isatty()

    def report(text: str, exc: ReproError) -> None:
        print(f"error: {text}: {format_error(exc)}", file=sys.stderr)

    def run_meta(line: str) -> bool:
        """Handle a ``.meta`` command line; False means quit."""
        cmd, _, rest = line.partition(" ")
        rest = rest.strip()
        if cmd in (".quit", ".exit"):
            return False
        if cmd == ".stats":
            print(json.dumps(service.stats_snapshot(), indent=2))
        elif cmd == ".clear":
            service.clear()
            print("cache cleared")
        elif cmd == ".explain" and rest:
            print(service.explain(rest))
        elif cmd == ".views":
            _attach_views(engine)
            _print_views(engine)
        elif cmd == ".view" and rest:
            _attach_views(engine)
            _serve_view(service, rest, show_stats=args.stats)
        elif cmd == ".help":
            print("cohort queries and CREATE / DROP MATERIALIZED VIEW,\n"
                  "ended by ';' or a line that completes one; meta:\n"
                  "  .stats            cache/service counters\n"
                  "  .clear            drop the caches\n"
                  "  .explain <query>  plan + cache disposition\n"
                  "  .views            registered views + freshness\n"
                  "  .view <name>      serve a materialized view\n"
                  "  .quit             exit")
        else:
            print(f"unknown meta command {cmd!r}; try .help",
                  file=sys.stderr)
        return True

    statements = StatementAccumulator()

    def flush() -> None:
        statements.drain()
        batch: list[tuple[str, ParsedCohortQuery]] = []

        def run_batch() -> None:
            if not batch:
                return
            start = time.perf_counter()
            outcomes = service.query_batch([q for _, q in batch])
            elapsed = time.perf_counter() - start
            for (text, _), outcome in zip(batch, outcomes):
                if isinstance(outcome, ReproError):
                    report(text, outcome)
                    continue
                result, stats = outcome
                print(f"== {stats.cache_disposition}: {text}")
                print(result.to_text())
            if args.stats:
                print(f"[batch of {len(batch)} in {elapsed:.4f}s]")
            batch.clear()

        for text, parsed in statements.take():
            if isinstance(parsed, ParsedCohortQuery):
                batch.append((text, parsed))
            elif isinstance(parsed, ReproError):
                report(text, parsed)
            else:
                # DDL is a barrier: queries batched before it run
                # first, queries after it see its effect.
                run_batch()
                try:
                    _run_ddl(engine, parsed, age_unit=service.age_unit,
                             time_bin_origin=service.time_bin_origin)
                except ReproError as exc:
                    report(text, exc)
        run_batch()

    if interactive:
        print(f"serving {args.input} "
              f"(cache {'on' if args.cache else 'off'}); .help for help")
    for line in _stdin_lines(interactive):
        if not line or line.startswith("#"):
            continue
        if not line.startswith("."):
            statements.feed(line)
            if interactive:
                flush()
            continue
        flush()
        try:
            if not run_meta(line):
                return 0
        except ReproError as exc:
            # A bad meta argument (e.g. `.explain <bogus query>`) must
            # not end the session.
            report(line, exc)
    flush()
    return 0


def _serve_http(args) -> int:
    """``serve --http HOST:PORT``: the asyncio HTTP frontend.

    Tables load lazily under each query's FROM name (the engine's
    ``source``, as on stdin); when the input is a sharded table
    directory, ``POST /ingest`` appends CSV batches as new shards and
    refreshes the registration (version token moves, caches invalidate
    exactly). SIGTERM/SIGINT drain gracefully: stop accepting, finish
    in-flight requests, flush the final stats line.
    """
    from repro.service.http import AdmissionConfig, HttpCohortServer

    host, _, port_text = args.http.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"error: --http expects HOST:PORT, got {args.http!r}",
              file=sys.stderr)
        return 1
    server = HttpCohortServer(
        _service(args),
        host=host, port=int(port_text),
        admission=AdmissionConfig(**{
            field: getattr(args, field)
            for field in _ADMISSION_FLAGS.values()
            if getattr(args, field) is not None}))
    server.run()
    return 0


def _view_cmd(args) -> int:
    """The ``view`` subcommands over a table's persisted views."""
    engine = CohanaEngine(source=args.input)
    if args.view_command == "create":
        parsed = parse_statement(args.text)
        if not isinstance(parsed, ParsedCreateView):
            print("error: expected a CREATE MATERIALIZED VIEW "
                  "statement", file=sys.stderr)
            return 1
        if not is_sharded_path(args.input):
            print(f"error: {args.input} is not a sharded table "
                  f"directory; views persist only next to one",
                  file=sys.stderr)
            return 1
        _run_ddl(engine, parsed, age_unit=args.age_unit,
                 time_bin_origin=parse_timestamp(args.origin)
                 if args.origin else 0)
        return 0
    if not _attach_views(engine):
        print(f"error: no persisted views under {args.input}",
              file=sys.stderr)
        return 1
    if args.view_command == "list":
        _print_views(engine)
        return 0
    if args.view_command == "refresh":
        for name in (args.names or engine.views()):
            stats = engine.refresh_view(name)
            print(f"{name}: scanned {stats.shards_scanned} of "
                  f"{stats.shards_total} shards")
        return 0
    if args.view_command == "drop":
        _run_ddl(engine, ParsedDropView(args.name))
        return 0
    if args.view_command == "serve":
        _serve_view(QueryService(engine), args.name,
                    show_stats=args.stats, pivot=args.pivot)
        return 0
    raise AssertionError(
        f"unhandled view command {args.view_command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
