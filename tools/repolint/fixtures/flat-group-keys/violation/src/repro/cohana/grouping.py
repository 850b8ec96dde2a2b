"""Seeded violation: cohort labels and buckets grouped by sorting."""

import numpy as np


def labels(label_matrix):
    return np.unique(label_matrix, axis=0, return_inverse=True)


def pairs(group, users):
    return np.unique(np.stack([group, users], axis=1), False, False,
                     False, 0)


def buckets(label, age):
    ages, age_codes = np.unique(age, return_inverse=True)
    return np.unique(label * len(ages) + age_codes, return_inverse=True)
