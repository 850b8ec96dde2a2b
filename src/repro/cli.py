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
* ``serve``    — serve queries from stdin against a ``.cohana`` file or
  sharded table directory: a REPL on a terminal, a concurrent batch
  reader on piped input. Accepts ``CREATE MATERIALIZED VIEW`` / ``DROP
  MATERIALIZED VIEW`` statements and the ``.views`` / ``.view <name>``
  meta commands;
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

from repro.cohana import CohanaEngine
from repro.cohana.parser import (
    ParsedCreateView,
    ParsedDropView,
    parse_cohort_query,
    parse_statement,
)
from repro.datagen import GameConfig, game_schema, generate, scale_dataset
from repro.errors import ReproError
from repro.schema import parse_timestamp
from repro.service import QueryService
from repro.storage import collect_stats, compress, load, save
from repro.table import read_csv, write_csv


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
    p.add_argument("--chunk-rows", type=int, default=65536)

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
    p.add_argument("--chunk-rows", type=int, default=65536)

    p = sub.add_parser("compact", help="merge small shards of a "
                                       "sharded table into one")
    p.add_argument("table", help="sharded table directory")
    p.add_argument("--small-rows", type=int, default=None,
                   help="merge only shards at or under this many rows "
                        "(default: merge all shards)")
    p.add_argument("--chunk-rows", type=int, default=None,
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
                   choices=("vectorized", "iterator"))
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel scan workers (default 1)")
    p.add_argument("--backend", default=None,
                   choices=("serial", "threads", "processes"),
                   help="scan backend (default with --jobs > 1: "
                        "processes, which mmaps the .cohana file in "
                        "each worker)")
    p.add_argument("--scan-mode", default="auto",
                   choices=("auto", "decoded", "compressed"),
                   help="predicate evaluation domain: 'compressed' "
                        "evaluates on the encoded chunks with zone-map "
                        "pruning, 'decoded' materializes codes first, "
                        "'auto' picks per chunk (default)")
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
                                     "(REPL on a terminal, concurrent "
                                     "batch on piped input) or over "
                                     "HTTP (--http HOST:PORT)")
    p.add_argument("input", help=".cohana file or sharded table dir")
    p.add_argument("--http", default=None, metavar="HOST:PORT",
                   help="serve over HTTP instead of stdin: an asyncio "
                        "frontend with per-tenant admission control "
                        "(POST /query /batch /ingest, GET /explain "
                        "/stats /healthz); port 0 picks a free port; "
                        "SIGTERM drains gracefully")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="HTTP: concurrent executions — the engine "
                        "thread-pool size (default 8)")
    p.add_argument("--queue-depth", type=int, default=16,
                   help="HTTP: admitted requests allowed to wait for "
                        "an execution slot; beyond this the request "
                        "is shed with 429 (default 16)")
    p.add_argument("--tenant-quota", type=int, default=8,
                   help="HTTP: per-tenant (X-Tenant header) cap on "
                        "in-flight requests (default 8)")
    p.add_argument("--tenant-rate", type=float, default=None,
                   help="HTTP: per-tenant token-bucket rate limit in "
                        "requests/second (default: off)")
    p.add_argument("--tenant-burst", type=int, default=8,
                   help="HTTP: per-tenant token-bucket capacity "
                        "(default 8)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="HTTP: per-request budget in seconds covering "
                        "queue wait + execution (default 30)")
    p.add_argument("--jobs", type=int, default=4,
                   help="admission workers for piped input: distinct "
                        "queries run concurrently and, with the cache "
                        "on, identical in-flight queries are "
                        "deduplicated (default 4)")
    p.add_argument("--executor", default="vectorized",
                   choices=("vectorized", "iterator"))
    p.add_argument("--scan-mode", default="auto",
                   choices=("auto", "decoded", "compressed"))
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
    v.add_argument("input", help="sharded table dir (or .cohana file)")
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
                   help="print a [shards scanned/total, seconds] line")

    p = sub.add_parser("bench", help="run the figure experiments")
    p.add_argument("names", nargs="*", help="experiment names "
                                            "(default: all)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
        stats = collect_stats(load(args.input))
        print(f"{args.input}: {stats.n_rows} tuples, "
              f"{stats.n_chunks} chunks "
              f"(target {stats.target_chunk_rows} rows/chunk)")
        print(f"  total          {stats.total_bytes:>12,} bytes "
              f"({stats.bits_per_tuple:.1f} bits/tuple)")
        print(f"  user RLE       {stats.user_rle_bytes:>12,} bytes")
        print(f"  global dicts   {stats.global_dict_bytes:>12,} bytes")
        for name in sorted(stats.columns):
            col = stats.columns[name]
            print(f"  {name:<14} {col.total_bytes:>12,} bytes "
                  f"[{col.kind}]")
        return 0
    if args.command == "query":
        engine = CohanaEngine()
        table_name = parse_cohort_query(args.text).table
        engine.load_table(table_name, args.input)
        service = QueryService(engine, enabled=args.cache,
                               executor=args.executor)
        origin = parse_timestamp(args.origin) if args.origin else 0
        query = engine.parse(args.text, age_unit=args.age_unit,
                             time_bin_origin=origin)
        if args.explain:
            print(service.explain(query, scan_mode=args.scan_mode,
                                  jobs=args.jobs, backend=args.backend,
                                  analyze=True))
            return 0
        result = service.query(query, jobs=args.jobs,
                               backend=args.backend,
                               scan_mode=args.scan_mode)
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


def _serve(args) -> int:
    """The ``serve`` command: queries from stdin through the service
    (or over HTTP with ``--http``).

    On a terminal this is a small REPL (one query per line, ``.help``
    for meta commands). On piped input, statements may span multiple
    lines (terminated by ``;`` or by parsing as a complete query);
    they are parsed first and then admitted as one concurrent batch
    per flush, so distinct queries run on ``--jobs`` admission workers
    and identical ones are deduplicated in flight. Both the stdin path
    and the HTTP frontend classify statement errors through the same
    surface (:mod:`repro.service.protocol`): the REPL prints the
    one-line rendering, HTTP sends the JSON payload as a 400.
    """
    import json

    if args.http:
        return _serve_http(args)

    from repro.service.protocol import StatementAccumulator, format_error

    engine = CohanaEngine()
    service = QueryService(engine, enabled=args.cache,
                           executor=args.executor)
    origin = parse_timestamp(args.origin) if args.origin else 0
    parse_kw = dict(age_unit=args.age_unit, time_bin_origin=origin)

    def bind(text: str):
        """Parse + bind one query, loading the served file under the
        query's FROM name on first use."""
        name = parse_cohort_query(text).table
        if name not in engine.tables():
            engine.load_table(name, args.input)
        return engine.parse(text, **parse_kw)

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
            print(service.explain(bind(rest),
                                  scan_mode=args.scan_mode))
        elif cmd == ".views":
            ensure_loaded()
            names = engine.views()
            if not names:
                print("no views registered")
            for vname in names:
                s = engine.view_status(vname)
                print(f"{s['name']}: table={s['table']} "
                      f"shards={s['shards_cached']}/{s['shards_total']} "
                      f"fingerprint={s['fingerprint'][:12]}")
        elif cmd == ".view" and rest:
            ensure_loaded()
            start = time.perf_counter()
            result, stats = service.serve_view(rest)
            elapsed = time.perf_counter() - start
            print(result.to_text())
            if args.stats:
                print(f"[{stats.cache_disposition} "
                      f"shards {stats.shards_scanned}/"
                      f"{stats.shards_total} {elapsed:.4f}s]")
        elif cmd == ".help":
            print("one statement per line (cohort queries and CREATE /\n"
                  "DROP MATERIALIZED VIEW); meta commands:\n"
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

    def run_one(text: str) -> None:
        parsed = parse_statement(text)
        if isinstance(parsed, (ParsedCreateView, ParsedDropView)):
            run_ddl(text, parsed)
            return
        start = time.perf_counter()
        result, stats = service.query_with_stats(
            bind(text), scan_mode=args.scan_mode)
        elapsed = time.perf_counter() - start
        print(result.to_text())
        if args.stats:
            print(f"[{stats.cache_disposition} {elapsed:.4f}s]")

    def ensure_loaded() -> None:
        """Load the served input for paths that carry no FROM clause
        (``.views``, ``.view``, DROP): attach via the persisted view
        definitions when no table is loaded yet."""
        if engine.tables():
            return
        from pathlib import Path

        from repro.views import VIEWS_DIRNAME, DiskViewStore
        definitions = DiskViewStore(
            Path(args.input) / VIEWS_DIRNAME).load_definitions()
        if definitions:
            engine.load_table(definitions[0]["table"], args.input)

    def run_ddl(text: str, parsed) -> None:
        """Execute one CREATE/DROP MATERIALIZED VIEW statement."""
        if isinstance(parsed, ParsedCreateView):
            name = parsed.query.table
            if name not in engine.tables():
                engine.load_table(name, args.input)
        else:
            ensure_loaded()
        out = engine.execute_statement(text, **parse_kw)
        if isinstance(parsed, ParsedCreateView):
            status = engine.view_status(out.name)
            print(f"view {out.name}: "
                  f"{status['shards_cached']}/{status['shards_total']} "
                  f"shard partials cached")
        else:
            print(f"{'dropped' if out else 'no such'} "
                  f"view {parsed.name}")

    if sys.stdin.isatty():  # pragma: no cover - interactive only
        print(f"serving {args.input} "
              f"(cache {'on' if args.cache else 'off'}); .help for help")
        while True:
            try:
                line = input("cohana> ").strip()
            except (EOFError, KeyboardInterrupt):
                print()
                return 0
            if not line:
                continue
            try:
                if line.startswith("."):
                    if not run_meta(line):
                        return 0
                else:
                    run_one(line.rstrip(";"))
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)

    # Piped input: batch consecutive queries, flushing at meta lines.
    # Multi-line statement accumulation is the shared
    # StatementAccumulator (the HTTP frontend speaks whole statements,
    # but both paths classify broken ones through the same error
    # surface — see repro.service.protocol).
    statements = StatementAccumulator()

    def flush() -> None:
        pending = statements.take()
        if not pending:
            return
        batch: list[tuple[str, object]] = []

        def run_batch() -> None:
            if not batch:
                return
            start = time.perf_counter()
            try:
                pairs = service.query_batch([q for _, q in batch],
                                            concurrency=args.jobs,
                                            with_stats=True,
                                            scan_mode=args.scan_mode)
            except ReproError as exc:
                # One failed execution drops its batch, not the
                # session — the same per-item policy as parse and meta
                # errors above.
                print(f"error: batch failed: {exc}", file=sys.stderr)
                batch.clear()
                return
            elapsed = time.perf_counter() - start
            for (text, _), (result, stats) in zip(batch, pairs):
                print(f"== {stats.cache_disposition}: {text}")
                print(result.to_text())
            if args.stats:
                print(f"[batch of {len(batch)} in {elapsed:.4f}s, "
                      f"jobs={args.jobs}]")
            batch.clear()

        for text in pending:
            try:
                parsed = parse_statement(text)
            except ReproError as exc:
                print(f"error: {text}: {format_error(exc)}",
                      file=sys.stderr)
                continue
            if isinstance(parsed, (ParsedCreateView, ParsedDropView)):
                # DDL is a barrier: queries batched before it run
                # first, queries after it see its effect.
                run_batch()
                try:
                    run_ddl(text, parsed)
                except ReproError as exc:
                    print(f"error: {text}: {format_error(exc)}",
                          file=sys.stderr)
                continue
            try:
                batch.append((text, bind(text)))
            except ReproError as exc:
                print(f"error: {text}: {format_error(exc)}",
                      file=sys.stderr)
        run_batch()

    keep_going = True
    for raw in sys.stdin:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("."):
            statements.drain()
            flush()
            try:
                if not run_meta(line):
                    keep_going = False
                    break
            except ReproError as exc:
                # A bad meta argument (e.g. `.explain <bogus query>`)
                # must not kill the rest of the piped session.
                print(f"error: {line}: {format_error(exc)}",
                      file=sys.stderr)
        else:
            statements.feed(line)
    if keep_going:
        statements.drain()
        flush()
    return 0


def _serve_http(args) -> int:
    """``serve --http HOST:PORT``: the asyncio HTTP frontend.

    Tables load lazily under each query's FROM name (same policy as
    the stdin path); when the input is a sharded table directory,
    ``POST /ingest`` appends CSV batches as new shards and refreshes
    the registration (version token moves, caches invalidate exactly).
    SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight
    requests, flush the final stats line.
    """
    import threading
    from pathlib import Path

    from repro.service.http import AdmissionConfig, HttpCohortServer
    from repro.storage import MANIFEST_NAME

    host, _, port_text = args.http.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"error: --http expects HOST:PORT, got {args.http!r}",
              file=sys.stderr)
        return 1
    engine = CohanaEngine()
    service = QueryService(engine, enabled=args.cache,
                           executor=args.executor)
    origin = parse_timestamp(args.origin) if args.origin else 0
    parse_kw = dict(age_unit=args.age_unit, time_bin_origin=origin)
    bind_lock = threading.Lock()

    def bind_table(name: str) -> None:
        """Load the served input under ``name`` on first use (worker
        threads race here; the lock makes the load happen once)."""
        with bind_lock:
            if name not in engine.tables():
                engine.load_table(name, args.input)

    directory = Path(args.input)
    sharded = (directory / MANIFEST_NAME).is_file()
    server = HttpCohortServer(
        service,
        host=host, port=int(port_text),
        admission=AdmissionConfig(
            max_inflight=args.max_inflight,
            queue_depth=args.queue_depth,
            tenant_quota=args.tenant_quota,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            timeout_seconds=args.timeout),
        bind_table=bind_table,
        ingest_dir=directory if sharded else None,
        csv_schema=game_schema() if sharded else None,
        parse_kw=parse_kw,
        scan_mode=args.scan_mode)
    server.run()
    return 0


def _view_cmd(args) -> int:
    """The ``view`` subcommands over a table's persisted views."""
    from pathlib import Path

    from repro.views import VIEWS_DIRNAME, DiskViewStore

    engine = CohanaEngine()

    def attach_table() -> bool:
        """Load the input under its persisted views' table name; the
        engine re-attaches every stored definition during load."""
        store = DiskViewStore(Path(args.input) / VIEWS_DIRNAME)
        definitions = store.load_definitions()
        if not definitions:
            print(f"error: no persisted views under {args.input}",
                  file=sys.stderr)
            return False
        engine.load_table(definitions[0]["table"], args.input)
        return True

    if args.view_command == "create":
        parsed = parse_statement(args.text)
        if not isinstance(parsed, ParsedCreateView):
            print("error: expected a CREATE MATERIALIZED VIEW "
                  "statement", file=sys.stderr)
            return 1
        engine.load_table(parsed.query.table, args.input)
        origin = parse_timestamp(args.origin) if args.origin else 0
        view = engine.execute_statement(args.text,
                                        age_unit=args.age_unit,
                                        time_bin_origin=origin)
        status = engine.view_status(view.name)
        print(f"created view {view.name} over {view.table}: "
              f"{status['shards_cached']}/{status['shards_total']} "
              f"shard partials cached")
        return 0
    if args.view_command == "list":
        if not attach_table():
            return 1
        for name in engine.views():
            s = engine.view_status(name)
            print(f"{s['name']}: table={s['table']} "
                  f"shards={s['shards_cached']}/{s['shards_total']} "
                  f"fingerprint={s['fingerprint'][:12]}")
        return 0
    if args.view_command == "refresh":
        if not attach_table():
            return 1
        for name in (args.names or engine.views()):
            stats = engine.refresh_view(name)
            print(f"{name}: scanned {stats.shards_scanned} of "
                  f"{stats.shards_total} shards")
        return 0
    if args.view_command == "drop":
        if not attach_table():
            return 1
        engine.drop_view(args.name)
        print(f"dropped view {args.name}")
        return 0
    if args.view_command == "serve":
        if not attach_table():
            return 1
        start = time.perf_counter()
        result, stats = engine.serve_view(args.name)
        elapsed = time.perf_counter() - start
        print(result.to_text())
        if args.pivot:
            print()
            print(result.pivot().to_text())
        if args.stats:
            print(f"[shards {stats.shards_scanned}/"
                  f"{stats.shards_total} {elapsed:.4f}s]")
        return 0
    raise AssertionError(
        f"unhandled view command {args.view_command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
