"""Seeded violation: cohort labels grouped by sorting rows."""

import numpy as np


def labels(label_matrix):
    return np.unique(label_matrix, axis=0, return_inverse=True)


def pairs(group, users):
    return np.unique(np.stack([group, users], axis=1), False, False,
                     False, 0)
