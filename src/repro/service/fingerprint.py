"""Canonical query fingerprints for the caching service.

A fingerprint must satisfy one contract: two calls get the same
fingerprint **iff** they are guaranteed to produce the same result
relation. Three design decisions follow:

* fingerprints are computed from the **bound** :class:`CohortQuery`,
  not the query text — parsing plus binding already normalizes
  whitespace, case of keywords, and implicit defaults, so textual
  variants of one query share a fingerprint;
* the engine's per-table **version token** is folded in — the token
  changes whenever the table registration changes (``replace=True``,
  or a reloaded file whose content digest differs), so a stale result
  can never be served: its fingerprint simply no longer comes up;
* execution knobs (executor kernel, backend, jobs, scan mode,
  push-down, pruning) are **excluded** — the pipeline guarantees
  result parity across all of them (a property the test suite checks
  independently), so results cached under one configuration are valid
  answers for every other.

Bound queries are trees of frozen dataclasses (conditions, aggregate
specs, literals), whose ``repr`` is deterministic and total — that
``repr`` is the canonical form.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.cohort.query import CohortQuery

#: Bump when the canonical form changes incompatibly, so fingerprints
#: from older layouts cannot collide with current ones.
#: v2: CohortQuery grew the ``sessionize`` field (its repr — the
#: canonical form — changed for every query, sessionized or not).
FINGERPRINT_VERSION = 2


def query_key(query: CohortQuery) -> str:
    """The canonical, version-free identity of a bound query.

    Two bound queries with equal keys request the same result relation
    from the same table name; whether the cached answer is *current*
    is decided by the version token (:func:`result_fingerprint`).
    """
    return f"v{FINGERPRINT_VERSION}|{query!r}"


def result_fingerprint(query: CohortQuery, version_token: str) -> str:
    """Result-cache key: hash of the bound query + table version token."""
    payload = f"{version_token}|{query_key(query)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def view_fingerprint(query: CohortQuery) -> str:
    """Identity of a materialized view *definition*.

    Unlike result fingerprints, no version token is folded in — a view's
    partial store is keyed ``(view_fingerprint, shard content digest)``,
    so freshness is decided per shard, not per table version. The table
    *name* is excluded too (a sharded directory registered under a
    different catalog name still owns the same persisted partials);
    everything semantic — conditions, aggregates, age unit, time-bin
    origin — is part of the bound query's canonical ``repr``.
    """
    canonical = replace(query, table=None)
    payload = f"view{FINGERPRINT_VERSION}|{canonical!r}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
