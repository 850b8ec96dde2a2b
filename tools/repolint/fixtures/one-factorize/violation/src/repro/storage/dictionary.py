"""Seeded violation: a chunk dictionary and a zone-map count each
through a bare np.unique."""

import numpy
import numpy as np


def encode_chunk_strings(global_ids):
    distinct = np.unique(global_ids)
    return distinct, np.searchsorted(distinct, global_ids)


def distinct_count(values):
    return int(numpy.unique(values).size)
