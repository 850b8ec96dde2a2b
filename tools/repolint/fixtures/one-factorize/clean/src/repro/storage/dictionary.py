"""Clean twin: every distinct-value coding goes through factorize,
the one function whose fallback is np.unique."""

import numpy as np


def factorize(values):
    if values.size and values.dtype.kind == "i":
        low = int(values.min())
        span = int(values.max()) - low + 1
        if span <= 4 * values.size + 64:
            present = np.bincount(values - low, minlength=span) > 0
            codes = np.cumsum(present) - 1
            return np.flatnonzero(present) + low, codes[values - low]
    return np.unique(values, return_inverse=True)


def encode_chunk_strings(global_ids):
    return factorize(global_ids)


def distinct_count(values):
    return factorize(values)[0].size
