"""Ranking and score-recovery quality metrics.

Permutations are integer arrays mapping rank position to item: order[0] is
the top-ranked item. All metrics are pure functions.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateVariance, DimensionMismatch, InvalidParam
from .linalg import SkewSparseMatrix


def _check_permutation(order: np.ndarray) -> np.ndarray:
    order = np.asarray(order, dtype=np.int64)
    if order.ndim != 1:
        raise InvalidParam("permutation must be a 1-d array")
    n = order.size
    if n and (np.sort(order) != np.arange(n)).any():
        raise InvalidParam("not a permutation of 0..n-1")
    return order


def _positions(order: np.ndarray) -> np.ndarray:
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    return pos


def _merge_count(seq: list[int]) -> tuple[list[int], int]:
    if len(seq) <= 1:
        return seq, 0
    mid = len(seq) // 2
    left, a = _merge_count(seq[:mid])
    right, b = _merge_count(seq[mid:])
    merged = []
    inv = a + b
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            inv += len(left) - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inv


def kendall_distance(a: np.ndarray, b: np.ndarray, normalized: bool = False) -> int | float:
    """Number of unordered pairs ranked in opposite order by ``a`` and ``b``.

    Counted in O(n log n) by inversion counting: relabel items by their
    position under ``a`` and count inversions of that sequence along ``b``.
    With ``normalized`` the count is divided by n(n-1)/2.
    """
    a = _check_permutation(a)
    b = _check_permutation(b)
    if a.size != b.size:
        raise DimensionMismatch("permutations have different lengths")
    pos_a = _positions(a)
    seq = pos_a[b].tolist()
    _, inv = _merge_count(seq)
    if normalized:
        pairs = a.size * (a.size - 1) // 2
        return inv / pairs if pairs else 0.0
    return inv


def pearson_correlation(r: np.ndarray, r_hat: np.ndarray) -> float:
    r = np.asarray(r, dtype=np.float64)
    r_hat = np.asarray(r_hat, dtype=np.float64)
    if r.shape != r_hat.shape:
        raise DimensionMismatch("vectors have different lengths")
    x = r - r.mean()
    y = r_hat - r_hat.mean()
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise DegenerateVariance("correlation undefined for a constant vector")
    return float(np.clip((x @ y) / (nx * ny), -1.0, 1.0))


def rmse(r: np.ndarray, r_hat: np.ndarray) -> float:
    """Root-mean-square error after centering both vectors: sqrt(mean d^2)."""
    r = np.asarray(r, dtype=np.float64)
    r_hat = np.asarray(r_hat, dtype=np.float64)
    if r.shape != r_hat.shape:
        raise DimensionMismatch("vectors have different lengths")
    d = (r - r.mean()) - (r_hat - r_hat.mean())
    return float(np.sqrt((d @ d) / r.size))


def count_upsets(R: SkewSparseMatrix, s: np.ndarray) -> int:
    """Observed pairs whose measured sign disagrees with the score offset.

    A pair i < j is an upset when sign(R_ij * (s_i - s_j)) = -1; pairs where
    either factor is exactly zero contribute nothing.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (R.n,):
        raise DimensionMismatch("score vector length does not match matrix")
    offsets = s[R.rows] - s[R.cols]
    return int(np.count_nonzero(np.sign(R.values) * np.sign(offsets) == -1.0))


def weighted_upsets(R: SkewSparseMatrix, s: np.ndarray) -> float:
    """Sum of |R_ij - (s_i - s_j)| over observed pairs i < j."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (R.n,):
        raise DimensionMismatch("score vector length does not match matrix")
    return float(np.abs(R.values - (s[R.rows] - s[R.cols])).sum())


def max_displacement(pi: np.ndarray, pi_hat: np.ndarray) -> int:
    """Worst per-item count of partners ordered oppositely by the two rankings.

    For each item, counts the partners ranked after it by ``pi`` but before
    it by ``pi_hat``, plus the mirrored disagreements, and takes the maximum.
    Evaluated exactly from the position tables (quadratic, fine at the sizes
    used here).
    """
    pi = _check_permutation(pi)
    pi_hat = _check_permutation(pi_hat)
    if pi.size != pi_hat.size:
        raise DimensionMismatch("permutations have different lengths")
    if pi.size == 0:
        return 0
    x = _positions(pi).astype(np.int64)
    y = _positions(pi_hat).astype(np.int64)
    dx = np.sign(x[None, :] - x[:, None])
    dy = np.sign(y[None, :] - y[:, None])
    disagree = (dx * dy) == -1
    return int(disagree.sum(axis=1).max())
