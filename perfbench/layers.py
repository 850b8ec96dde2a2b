"""Per-layer metrics and the layer-separation report, both computed
from the spans, counts and samples of one traced run.

Every metric is a function of *everything recorded under a name* in
the run — the workload's own traced rounds pooled with the layer tour
(:mod:`perfbench.tour`) — so the same definition holds on all four
workloads. The README's layer table says which end-to-end metric each
one should move, and on which workload.
"""

from __future__ import annotations

import statistics

from perfbench import stats
from perfbench.trace import Tracer, layer_self_seconds, self_seconds

#: Layers whose self time is kernel or pipeline work (``execute_chunk``
#: runs the kernels).
KERNEL_LAYERS = ("cohana.operators", "cohana.pipeline")

ROOT = "bench.client.op"


def count_cache(tracer, snapshot: dict) -> None:
    """Pool one ``QueryService.stats_snapshot()`` into the run."""
    counters = snapshot["service"]
    tracer.count("cache_hits", counters["hits"])
    tracer.count("cache_reads", sum(
        counters[k] for k in ("hits", "misses", "bypasses",
                              "invalidated", "refreshes")))
    tracer.count("cache_evictions", snapshot["results"]["evictions"])
    tracer.count("cache_invalidations", counters["invalidated"])


def count_server(tracer, snapshot: dict) -> None:
    """Pool one server's ``GET /stats`` into the run."""
    count_cache(tracer, snapshot["service"])
    http = snapshot["http"]
    tracer.count("http_received", http["received"])
    tracer.count("http_shed", http["shed"])
    tracer.count("http_unbalanced", abs(
        http["received"] - http["completed"] - http["errors"]
        - http["shed"]))


def _per_row(tracer: Tracer, name: str) -> float:
    """Seconds per row over the spans called ``name``."""
    spans = tracer.named(name)
    return (sum(s.seconds for s in spans)
            / sum(s.attrs["rows"] for s in spans))


def _mean_sample(tracer: Tracer, name: str) -> float:
    values = tracer.samples[name]
    return sum(values) / len(values)


def metrics(tracer: Tracer, ops) -> dict:
    """Every per-layer metric of the traced run, by name."""
    t = tracer
    ms = t.mean_seconds
    c = t.counts
    serial = ms("backend.serial")
    hit = ms("service.service.hit")
    payload = ms("service.protocol.payload")
    http_hit_quiet = ms("service.http.request", disposition="hit",
                        during_ingest=False)
    appends = t.named("storage.sharded.append_shard")
    values = {
        "cohana.parser.parse_us": (ms("cohana.parser.parse") * 1e6, "us"),
        "cohana.binder.bind_us": (ms("cohana.binder.bind") * 1e6, "us"),
        "cohana.planner.plan_us": (ms("cohana.planner.plan") * 1e6, "us"),
        "cohana.operators.lower_us":
            (ms("cohana.operators.lower") * 1e6, "us"),
        "cohana.operators.execute_chunk_ms":
            (ms("cohana.operators.execute_chunk") * 1e3, "ms"),
        "cohana.pipeline.prune_us":
            (ms("cohana.pipeline.prune") * 1e6, "us"),
        "cohana.pipeline.chunks_pruned_share":
            (c["chunks_pruned"] / c["chunks_total"], "ratio"),
        "cohana.pipeline.chunks_pruned_zone":
            (c["chunks_pruned_zone"], "count"),
        "cohana.pipeline.merge_ms":
            (ms("cohana.pipeline.merge") * 1e3, "ms"),
        "cohana.pipeline.build_rows_ms":
            (ms("cohana.pipeline.build_rows") * 1e3, "ms"),
        "cohana.pipeline.processes_jobs1_over_serial":
            (ms("backend.processes1") / serial, "ratio"),
        "cohana.pipeline.processes_speedup_jobs2":
            (serial / ms("backend.processes2"), "ratio"),
        "cohana.pipeline.threads_speedup_jobs2":
            (serial / ms("backend.threads2"), "ratio"),
        "cohana.pipeline.shard_fanout_overhead_ms":
            ((ms("fanout.sharded") - ms("fanout.single")) * 1e3, "ms"),
        "cohana.vectorized.scan_ns_per_row":
            (_per_row(t, "cohana.vectorized.scan") * 1e9, "ns/row"),
        "cohana.compressed.scan_ns_per_row":
            (_per_row(t, "cohana.compressed.scan") * 1e9, "ns/row"),
        "cohana.iterator_executor.scan_ns_per_row":
            (_per_row(t, "cohana.iterator_executor.scan") * 1e9,
             "ns/row"),
        "storage.writer.compress_ns_per_row":
            (_per_row(t, "storage.writer.compress") * 1e9, "ns/row"),
        "storage.format.serialize_mb_per_s":
            (sum(s.attrs["bytes"] for s in
                 t.named("storage.format.serialize")) / 1e6
             / sum(s.seconds for s in
                   t.named("storage.format.serialize")), "MB/s"),
        "storage.format.load_ms":
            (ms("storage.format.load") * 1e3, "ms"),
        "storage.format.bytes_per_row":
            (c["format_bytes"] / c["format_rows"], "B"),
        "storage.sharded.append_ms":
            (ms("storage.sharded.append_shard") * 1e3, "ms"),
        "storage.sharded.append_slope_ms_per_shard":
            (stats.slope([s.attrs["shards_before"] for s in appends],
                         [s.seconds * 1e3 for s in appends]),
             "ms/shard"),
        "storage.sharded.load_sharded_ms":
            (ms("storage.sharded.load_sharded") * 1e3, "ms"),
        "storage.sharded.write_amplification":
            (c["sharded_bytes_written"] / c["sharded_bytes_live"],
             "ratio"),
        "storage.compaction.compact_s":
            (ms("storage.compaction.compact"), "s"),
        "storage.compaction.bytes_rewritten":
            (sum(s.attrs["bytes"] for s in
                 t.named("storage.compaction.compact")), "B"),
        "storage.compaction.read_speedup":
            (ms("compaction.reads_before")
             / ms("compaction.reads_after"), "ratio"),
        "storage.compaction.gc_ms":
            (ms("storage.compaction.gc") * 1e3, "ms"),
        "views.catalog.serve_warm_ms":
            (ms("views.catalog.serve") * 1e3, "ms"),
        "views.catalog.refresh_after_append_ms":
            (ms("views.catalog.refresh") * 1e3, "ms"),
        "views.catalog.shards_scanned_per_refresh":
            (c["view_shards_scanned"] / c["view_refreshes"], "count"),
        "service.service.hit_us": (hit * 1e6, "us"),
        "service.service.miss_overhead_us":
            (miss_overhead(t) * 1e6, "us"),
        "service.cache.hit_share":
            (c["cache_hits"] / c["cache_reads"], "ratio"),
        "service.cache.evictions": (c["cache_evictions"], "count"),
        "service.cache.invalidations":
            (c["cache_invalidations"], "count"),
        "service.fingerprint.fingerprint_us":
            (ms("service.fingerprint.fingerprint") * 1e6, "us"),
        "service.protocol.payload_us": (payload * 1e6, "us"),
        "service.protocol.response_bytes":
            (_mean_sample(t, "service.protocol.response_bytes"), "B"),
        "service.http.socket_overhead_ms":
            ((http_hit_quiet - hit - payload) * 1e3, "ms"),
        "service.http.admission_wait_ms":
            (_mean_sample(t, "service.http.admission_wait_s") * 1e3,
             "ms"),
        "service.http.ingest_ms":
            (ms("service.http.ingest") * 1e3, "ms"),
        "service.http.read_ms_during_ingest":
            (ms("service.http.request", disposition="hit",
                during_ingest=True) * 1e3, "ms"),
        "service.http.read_ms_quiet": (http_hit_quiet * 1e3, "ms"),
        "service.http.shed_share":
            (c["http_shed"] / c["http_received"], "ratio"),
        "service.http.counters_balanced":
            (float(c["http_unbalanced"] == 0), "ratio"),
        "datagen.generate_rows_per_s":
            (1 / _per_row(t, "datagen.generate"), "rows/s"),
        "datagen.scale_rows_per_s":
            (1 / _per_row(t, "datagen.scale"), "rows/s"),
        "bench.client.writer_send_lag_ms":
            (_mean_sample(t, "bench.client.writer_send_lag_s") * 1e3,
             "ms"),
        "bench.client.trace_overhead_share":
            (trace_overhead(t, ops), "ratio"),
        "bench.client.trace_coverage_share":
            (trace_coverage(t), "ratio"),
    }
    # The gated class metrics, as this run's few rounds give them
    # (a timing metric too noisy to gate on lives on only here).
    values["bench.client.ops_per_s"] = (ops.ops_per_second(), "1/s")
    for cls in ("light", "heavy", "write"):
        p, value, n = stats.supported_tail(ops.samples(cls))
        prefix = f"bench.client.{cls}_{'read_' if cls != 'write' else ''}"
        values[prefix + "ms"] = (ops.class_ms(cls), "ms")
        values[prefix + "tail_ms"] = (value * 1e3, "ms")
        values[prefix + "tail_percentile"] = (p, "pct")
        values[prefix + "tail_samples"] = (n, "count")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def miss_overhead(tracer: Tracer) -> float:
    """Seconds a service miss costs above the direct engine run of
    the same query: the median over the queries, because the overhead
    does not depend on the query while the noise of a difference grows
    with the query's own run time."""
    texts = {s.attrs["text"] for s in tracer.named("engine.direct")}
    return statistics.median(
        tracer.mean_seconds("service.service.miss", text=text)
        - tracer.mean_seconds("engine.direct", text=text)
        for text in texts)


def trace_overhead(tracer: Tracer, ops) -> float:
    """Traced rounds' wall over untraced rounds' wall, minus one.
    The rounds come in pairs that read the same texts, one traced and
    one not (:func:`is_traced_round`); reference reads a traced round
    adds are not part of the workload and are taken out."""
    traced = [s for i, s in enumerate(ops.round_seconds)
              if is_traced_round(i)]
    untraced = [s for i, s in enumerate(ops.round_seconds)
                if not is_traced_round(i)]
    extra = sum(s.seconds for s in tracer.named("bench.client.reference"))
    return ((sum(traced) - extra) / len(traced)
            / (sum(untraced) / len(untraced)) - 1.0)


def is_traced_round(index: int) -> bool:
    """Rounds of a traced run go untraced, traced, traced, untraced,
    ...: each pair has one of each, and which comes first alternates so
    a table that grows round by round favours neither."""
    return index % 4 in (1, 2)


def trace_coverage(tracer: Tracer) -> float:
    """Share of the traced ops' wall that lies inside a layer span:
    one minus the ops' own self time."""
    roots = tracer.named(ROOT)
    per_span = self_seconds([s for s in tracer.spans
                             if s.request in {r.request for r in roots}])
    total = sum(r.seconds for r in roots)
    return 1.0 - sum(per_span[r.id] for r in roots) / total


def separation_report(workload: str, tracer: Tracer, ops) -> dict:
    """Per op class, the share of self time each layer took in the
    workload's traced rounds, and whether the workload's design intent
    (README, "Layer separation") held."""
    classes = {}
    for cls in ("light", "heavy", "write", "maintain"):
        roots = tracer.named(ROOT, cls=cls)
        if not roots:
            continue
        layers = layer_self_seconds(tracer.spans, roots)
        total = sum(layers.values())
        classes[cls] = {layer: seconds / total
                        for layer, seconds in sorted(layers.items())}

    def share(cls_names, prefixes) -> float:
        roots = [r for cls in cls_names
                 for r in tracer.named(ROOT, cls=cls)]
        layers = layer_self_seconds(tracer.spans, roots)
        total = sum(layers.values())
        return sum(v for k, v in layers.items()
                   if k.startswith(prefixes)) / total

    if workload == "adhoc_scan":
        intent = ("kernels + pipeline share of read time", 0.6,
                  share(("light", "heavy"), KERNEL_LAYERS))
    elif workload == "parallel_scan":
        # What a light read costs above an ideal two-way split of its
        # scan work (measured by the serial reference reads).
        light = tracer.named(ROOT, cls="light")
        wall = sum(r.seconds for r in light)
        reference = tracer.named("bench.client.reference", cls="light")
        scan = layer_self_seconds(tracer.spans, reference)
        useful = sum(v for k, v in scan.items()
                     if k.startswith(KERNEL_LAYERS)) / 2
        intent = ("pool overhead share of light reads", 0.5,
                  1.0 - useful / wall)
    elif workload == "ingest_lifecycle":
        intent = ("storage.* share of write time", 0.8,
                  share(("write",), ("storage.",)))
    else:
        # A hit is parse + bind (to fingerprint the bound query) and
        # then only service code; the client sees one round trip, so
        # the split uses the tour's in-process means.
        hit = tracer.mean_seconds("service.http.request",
                                  disposition="hit")
        front = (tracer.mean_seconds("cohana.parser.parse")
                 + tracer.mean_seconds("cohana.binder.bind"))
        intent = ("service.* share of light reads (rest: parse + bind; "
                  "kernels 0, a hit scans nothing)", 0.8,
                  1.0 - front / hit)
    text, threshold, value = intent
    return {"classes": classes,
            "intent": {"what": text, "at_least": threshold,
                       "measured": value, "holds": value >= threshold}}
