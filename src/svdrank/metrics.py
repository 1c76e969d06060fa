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


def _greater_before(seq: np.ndarray) -> np.ndarray:
    """Count, for each position of a permutation of 0..n-1, the earlier greater entries.

    Returns g with g[t] = #{s < t : seq[s] > seq[t]}. Each such pair is
    counted at the highest bit where the two values differ. Going from the
    top bit down, the entries stay grouped by the value bits above the
    current one (group k holds the values in [k * 2^(b+1), (k+1) * 2^(b+1)),
    so it starts at index k * 2^(b+1)) and in sequence order within a group;
    a running count of set bits then gives every entry with the bit clear
    its earlier, greater group mates, and a stable partition by the bit
    refines the groups. O(n) numpy work per bit, O(n log n) in all, O(n)
    memory.
    """
    seq = np.asarray(seq, dtype=np.int64)
    n = seq.size
    g = np.zeros(n, dtype=np.int64)
    pos = np.arange(n)  # sequence position of each arranged entry
    vals = seq.copy()
    index = np.arange(n)
    for b in reversed(range(max(n - 1, 0).bit_length())):
        bit = (vals >> b) & 1
        start = (vals >> (b + 1)) << (b + 1)
        ones = np.concatenate(([0], np.cumsum(bit)))
        ones_before = ones[index] - ones[start]
        clear = bit == 0
        g[pos[clear]] += ones_before[clear]
        clear_in_group = np.minimum(1 << b, n - start)
        dest = np.where(clear, index - ones_before, start + clear_in_group + ones_before)
        pos[dest], vals[dest] = pos.copy(), vals.copy()
    return g


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
    inv = int(_greater_before(_positions(a)[b]).sum())
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
    return int(np.count_nonzero(np.sign(R.values) * np.sign(R.offsets(s)) == -1.0))


def weighted_upsets(R: SkewSparseMatrix, s: np.ndarray) -> float:
    """Sum of |R_ij - (s_i - s_j)| over observed pairs i < j."""
    return float(np.abs(R.values - R.offsets(s)).sum())


def max_displacement(pi: np.ndarray, pi_hat: np.ndarray) -> int:
    """Worst per-item count of partners ordered oppositely by the two rankings.

    For each item, counts the partners ranked after it by ``pi`` but before
    it by ``pi_hat``, plus the mirrored disagreements, and takes the maximum.
    With s[t] the ``pi_hat`` position of the item at ``pi`` position t and
    g = _greater_before(s), the item at t disagrees with the g[t] items before
    it that ``pi_hat`` puts after it and with the s[t] - (t - g[t]) items
    after it that ``pi_hat`` puts before it: 2 g[t] + s[t] - t in all.
    O(n log n).
    """
    pi = _check_permutation(pi)
    pi_hat = _check_permutation(pi_hat)
    if pi.size != pi_hat.size:
        raise DimensionMismatch("permutations have different lengths")
    if pi.size == 0:
        return 0
    s = _positions(pi_hat)[pi]
    return int((2 * _greater_before(s) + s - np.arange(s.size)).max())
