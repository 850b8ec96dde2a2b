"""Suppressed twin: a bare np.unique, attributed and reasoned."""

import numpy as np


def reference_distinct_count(values):
    # repolint: ignore[one-factorize] -- slow reference used only to cross-check factorize's counts
    return int(np.unique(values).size)
