"""Seeded violation: age codes and bucket keys coded by a bare
np.unique in a kernel."""

import numpy as np


def buckets(label, age):
    ages, age_codes = np.unique(age, return_inverse=True)
    return np.unique(label * len(ages) + age_codes, return_inverse=True)
