"""perfbench — the repository's one benchmark.

Four closed-loop workloads over the public ``repro.*`` API, nine
end-to-end metrics per workload, and a separate traced run that
attributes time to the engine's layers from the outside. See
``perfbench/README.md`` for what each number means and how to run,
calibrate and compare.

Nothing here imports ``repro.bench`` or an underscore-prefixed name of
``repro``: the legacy harness can be deleted without touching this
package.
"""

#: The workloads, in the order every report lists them.
WORKLOADS = ("adhoc_scan", "parallel_scan", "ingest_lifecycle",
             "serve_under_ingest")

#: The nine end-to-end metrics every workload reports, in report order:
#: name -> (unit, which direction is better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "light_read_ms": ("ms", "lower"),
    "heavy_read_ms": ("ms", "lower"),
    "write_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "bytes_per_row": ("B", "lower"),
    "ok_ops_share": ("ratio", "higher"),
    "rows_scanned_per_read": ("rows", "lower"),
}
