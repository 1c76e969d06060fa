"""Matrices shared by the test modules: ``from matrix_helpers import ...``.

They live here rather than in ``conftest.py`` because ``bench/`` has a
``conftest.py`` too, and ``from conftest import`` would resolve to whichever
of the two pytest imported last.
"""

from __future__ import annotations

import numpy as np


def make_skew_dense(n: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return np.triu(A, 1) - np.triu(A, 1).T


def noiseless_matrix(r: np.ndarray):
    """Complete-graph measurement matrix with exact offsets r_i - r_j."""
    from svdrank.linalg import SkewSparseMatrix

    n = r.size
    i, j = np.triu_indices(n, 1)
    return SkewSparseMatrix(n, i, j, np.asarray(r, dtype=float)[i] - np.asarray(r, dtype=float)[j])
