"""The four workloads, by name."""

from perfbench.workloads.ingest import IngestLifecycle
from perfbench.workloads.scan import AdhocScan, ParallelScan
from perfbench.workloads.serve import ServeUnderIngest

REGISTRY = {cls.name: cls for cls in (AdhocScan, ParallelScan,
                                      IngestLifecycle, ServeUnderIngest)}
