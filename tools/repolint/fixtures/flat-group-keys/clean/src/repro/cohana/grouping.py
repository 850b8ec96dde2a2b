"""Clean twin: the same grouping on dense 1-D int64 keys, coded by the
one helper that may fall back to a sort."""

import numpy as np


def factorize(values):
    low = int(values.min()) if values.size else 0
    span = int(values.max()) - low + 1 if values.size else 0
    if values.size and span <= 4 * values.size + 64:
        present = np.bincount(values - low, minlength=span).astype(bool)
        codes = np.cumsum(present) - 1
        return np.flatnonzero(present) + low, codes[values - low]
    return np.unique(values, return_inverse=True)


def buckets(label, age):
    ages, age_codes = factorize(age)
    return factorize(label * len(ages) + age_codes)
