"""Suppressed twin: a row-wise unique, attributed and reasoned."""

import numpy as np


def reference_labels(label_matrix):
    # repolint: ignore[flat-group-keys] -- slow reference used only to cross-check the 1-D key helper
    return np.unique(label_matrix, axis=0, return_inverse=True)
