"""The caching cohort query service (serving frontend over the engine).

Layering::

    HTTP clients          POST /query /batch /ingest, GET /explain ...
        │
    HttpCohortServer      asyncio frontend: admission control
        │                 (token buckets, quotas, bounded queue,
        │                 timeouts, graceful drain) → engine pool
    callers / CLI (query, serve)
        │
    QueryService          fingerprint → result cache → admission
        │                 (single-flight; a batch runs in order)
    CohanaEngine          catalog + version tokens
        │
    chunk pipeline        scheduler, kernels, backends

See :mod:`repro.service.service` for the admission semantics,
:mod:`repro.service.fingerprint` for what makes a fingerprint sound,
:mod:`repro.service.http` for the network tier and
:mod:`repro.service.protocol` for the wire codecs, the error codec
both frontends share and the statement accumulator of ``serve`` on
stdin (HTTP speaks whole statements).
"""

from repro.common.lru import CacheCounters, LRUCache
from repro.service.fingerprint import query_key, result_fingerprint
from repro.service.http import (
    AdmissionConfig,
    AdmissionController,
    HttpCohortServer,
    HttpCounters,
    ServerHandle,
    Shed,
    TokenBucket,
    start_in_thread,
)
from repro.service.protocol import (
    ProtocolError,
    StatementAccumulator,
    error_payload,
    format_error,
    result_digest,
    result_payload,
    status_for,
)
from repro.service.service import (
    DISPOSITIONS,
    CachedEntry,
    QueryService,
    ServiceCounters,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "CacheCounters",
    "CachedEntry",
    "DISPOSITIONS",
    "HttpCohortServer",
    "HttpCounters",
    "LRUCache",
    "ProtocolError",
    "QueryService",
    "ServerHandle",
    "ServiceCounters",
    "Shed",
    "StatementAccumulator",
    "TokenBucket",
    "error_payload",
    "format_error",
    "query_key",
    "result_digest",
    "result_fingerprint",
    "result_payload",
    "start_in_thread",
    "status_for",
]
