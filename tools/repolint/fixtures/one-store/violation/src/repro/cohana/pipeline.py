"""Seeded violation: the scheduler building a store of its own."""

from repro.cohana import pipeline


def default_store(memo, token):
    return pipeline.SegmentPartials(memo.get, memo.__setitem__, token)
