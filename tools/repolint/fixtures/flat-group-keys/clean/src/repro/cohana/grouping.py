"""Clean twin: the same grouping on dense 1-D int64 keys."""

import numpy as np


def labels(label, age):
    ages, age_codes = np.unique(age, return_inverse=True)
    return np.unique(label * len(ages) + age_codes, return_inverse=True)


def flattened(matrix):
    return np.unique(matrix, axis=None)
