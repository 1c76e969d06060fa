"""Spectral ranking-and-synchronization pipelines with scale recovery.

Both pipelines share the same skeleton: take the top-2 left singular
subspace of the (possibly degree-normalized) measurement matrix and rank
by the in-span unit vector orthogonal to the projection of a reference
vector onto it: the constant vector, or D^{-1/2} e after normalization.
Two inner products with the reference give that vector. The global sign
is reconciled against the measurements by minimizing upsets, and the
global scale by the median of per-edge ratios between measured and
estimated offsets.

The recovered scale carries the orientation of the final scores: a negative
median ratio flips the score vector, which is exactly what happens on
heavily contaminated instances. The upset-minimizing sign ``beta`` is
reported alongside for diagnostics.

Everything here is a pure function of immutable inputs; concurrent
invocation is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyRatios,
    GraphDisconnected,
    IsolatedNode,
    ZeroDenominator,
)
from .linalg import (
    ScaledOperator,
    SkewSparseMatrix,
    SpectralPair,
    orthonormal_complement_in_span,
    top2_svd,
)


@dataclass(frozen=True)
class RankingResult:
    """Estimated ranking plus the centered score estimate and diagnostics.

    ``permutation`` maps rank position to item (best first). It is not
    passed in: it is derived from ``score_estimate`` as its stable
    descending sort, ties broken by item index. ``direction`` is the in-span
    unit vector of the spectral methods, kept so subspace errors can be
    inspected after the fact. ``permutation`` and ``score_estimate`` are
    read-only.
    """

    permutation: np.ndarray = field(init=False)
    score_estimate: np.ndarray
    beta: int
    tau: float
    method: str
    spectral: SpectralPair | None = None
    direction: np.ndarray | None = None

    def __post_init__(self):
        scores = np.asarray(self.score_estimate, dtype=np.float64)
        perm = ranking_from_scores(scores)
        perm.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "score_estimate", scores)


def center(v: np.ndarray) -> np.ndarray:
    """Subtract the mean: v - (e^T v / n) e."""
    v = np.asarray(v, dtype=np.float64)
    return v - v.mean()


def ranking_from_scores(scores: np.ndarray) -> np.ndarray:
    """Permutation (rank position -> item) by descending score, ties by index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.argsort(-scores, kind="stable")


def _ratios(H: SkewSparseMatrix, s: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-edge ratios H_ij / (s_i - s_j) from the offsets of ``s``, which this may overwrite.

    Pairs whose estimated offset is below 1e-12 times the score range are
    excluded; raises EmptyRatios when nothing survives. When every pair
    survives, the ratios are written over ``offsets`` and returned in it.
    A large value over a small kept offset may overflow to +-inf, which
    still sorts on its side of every finite ratio, so the median holds.
    """
    if H.num_entries == 0:
        raise EmptyRatios("no observed pairs")
    keep = np.abs(offsets) > 1e-12 * (s.max() - s.min())
    with np.errstate(over="ignore"):
        if keep.all():
            return np.divide(H.values, offsets, out=offsets)
        if not keep.any():
            raise EmptyRatios("all estimated offsets are numerically zero")
        return H.values[keep] / offsets[keep]


def _median(ratios: np.ndarray) -> float:
    """Median of ``ratios``, which it reorders in place; even length averages the middle two.

    Equals ``np.median``, NaN whenever one ratio is NaN, from a single-pivot
    partition: after it the h smallest entries come before entry h, so the
    lower middle of an even length is their maximum.
    """
    if ratios.size == 0:
        raise EmptyRatios("no ratios to take the median of")
    h = ratios.size // 2
    ratios.partition(h)  # NaNs sort last
    if np.isnan(ratios[h:]).any():
        return math.nan
    if ratios.size % 2:
        return float(ratios[h])
    return float((ratios[:h].max() + ratios[h]) / 2)


def _tau_or_nan(H: SkewSparseMatrix, s: np.ndarray, offsets: np.ndarray) -> float:
    """Median-of-ratios scale of ``s`` against H from its offsets (which it overwrites), or NaN."""
    try:
        return _median(_ratios(H, s, offsets))
    except EmptyRatios:
        return math.nan


def _upset_sign(H: SkewSparseMatrix, offsets: np.ndarray) -> int:
    """:func:`reconcile_sign` of ``s`` from its offsets against H.

    A pair is an upset of ``s`` where sign(H_ij) sign(s_i - s_j) = -1, and
    an upset of ``-s`` where it is +1, since negating ``s`` negates every
    offset exactly. sign(s_i - s_j) * H_ij carries that sign exactly.
    """
    agree = np.sign(offsets)
    agree *= H.values
    return -1 if np.count_nonzero(agree > 0.0) < np.count_nonzero(agree < 0.0) else 1


def compute_ratio_entries(H: SkewSparseMatrix, s: np.ndarray) -> np.ndarray:
    """Per-edge ratios H_ij / (s_i - s_j) over observed pairs.

    Pairs whose estimated offset is below 1e-12 times the score range are
    excluded; raises EmptyRatios when nothing survives.
    """
    s = np.asarray(s, dtype=np.float64)
    return _ratios(H, s, H.offsets(s))


def recover_scale_median(ratios: np.ndarray) -> float:
    """Median of the per-edge ratios; even length averages the middle two."""
    return _median(np.array(ratios, dtype=np.float64))


def recover_scale_ls(H: SkewSparseMatrix, s: np.ndarray) -> float:
    """Least-squares scale: sum of measurements over sum of estimated offsets."""
    denom = float(H.offsets(s).sum())
    if denom == 0.0:
        raise ZeroDenominator("estimated offsets sum to zero")
    return float(H.values.sum()) / denom


def reconcile_sign(s: np.ndarray, H: SkewSparseMatrix) -> int:
    """Sign in {-1, +1} whose induced offsets give fewer upsets; tie -> +1."""
    return _upset_sign(H, H.offsets(s))


def _scale_and_package(H: SkewSparseMatrix, s: np.ndarray, u_tilde: np.ndarray,
                       pair: SpectralPair, method: str,
                       scale_from: SkewSparseMatrix | None) -> RankingResult:
    """The result for scores ``s``, signed and scaled from one offsets pass over the source."""
    source = H if scale_from is None else scale_from
    offsets = source.offsets(s)
    beta = _upset_sign(source, offsets)
    tau = _tau_or_nan(source, s, offsets)
    scores = center((tau if math.isfinite(tau) else 1.0) * s)
    return RankingResult(score_estimate=scores, beta=beta, tau=tau, method=method,
                         spectral=pair, direction=u_tilde)


def svd_rs(H: SkewSparseMatrix, seed: int = 0,
           scale_from: SkewSparseMatrix | None = None) -> RankingResult:
    """Rank and score n items from a skew-symmetric measurement matrix.

    Pipeline: top-2 SVD of H; take the in-span unit vector orthogonal to
    the projection of the constant vector e onto the singular span; resolve
    the global sign by upset minimization and the global scale by the median
    of per-edge ratios; center. The measurement graph must be connected.

    The top-2 SVD is :func:`top2_svd` at its default tolerance and
    iteration cap, with its start vector seeded by ``seed``; it raises
    NotConverged past that cap.

    ``scale_from`` restricts sign and scale recovery to a different edge set
    (used when H itself was densified by matrix completion: ratios must only
    use originally observed pairs).
    """
    if not H.is_connected:
        raise GraphDisconnected("measurement graph is not connected")
    pair = top2_svd(H, seed=seed)
    u_tilde = orthonormal_complement_in_span(np.ones(H.n), pair)
    return _scale_and_package(H, u_tilde, u_tilde, pair, "svd_rs", scale_from)


def svd_nrs(H: SkewSparseMatrix, seed: int = 0,
            scale_from: SkewSparseMatrix | None = None) -> RankingResult:
    """Degree-normalized variant of :func:`svd_rs`.

    Works on D^{-1/2} H D^{-1/2} with D the absolute-degree diagonal, which
    helps under skewed degree distributions; the solver multiplies through
    H's own products (:class:`ScaledOperator`), so no scaled copy is made. The ranking statistic is
    D^{1/2} u_tilde, and scale recovery uses that same statistic. Requires
    every node to have at least one measurement. ``seed`` and ``scale_from``
    act as in :func:`svd_rs`.
    """
    d = H.abs_row_sums()
    if np.any(d <= 0.0):
        raise IsolatedNode("some node has no incident measurement")
    if not H.is_connected:
        raise GraphDisconnected("measurement graph is not connected")
    d_isqrt = 1.0 / np.sqrt(d)
    pair = top2_svd(ScaledOperator(H, d_isqrt), seed=seed)
    u_tilde = orthonormal_complement_in_span(d_isqrt, pair)
    s = np.sqrt(d) * u_tilde
    return _scale_and_package(H, s, u_tilde, pair, "svd_nrs", scale_from)
