"""Suppressed twin: a probe that counts store lookups, caches nothing."""

from repro.cohana.pipeline import SegmentPartials


def counting_store(counts, token):
    # repolint: ignore[one-store] -- every get misses and every put is dropped: a counter, not a cache
    return SegmentPartials(lambda digest: counts.append(digest),
                           lambda digest, p: None, token)
