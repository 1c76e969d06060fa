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
    SkewSparseMatrix,
    SpectralPair,
    orthonormal_complement_in_span,
    top2_svd,
)
from .metrics import count_upsets


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


def compute_ratio_entries(H: SkewSparseMatrix, s: np.ndarray) -> np.ndarray:
    """Per-edge ratios H_ij / (s_i - s_j) over observed pairs.

    Pairs whose estimated offset is below 1e-12 times the score range are
    excluded; raises EmptyRatios when nothing survives.
    """
    s = np.asarray(s, dtype=np.float64)
    offsets = H.offsets(s)
    if H.num_entries == 0:
        raise EmptyRatios("no observed pairs")
    zeta = 1e-12 * (s.max() - s.min())
    keep = np.abs(offsets) > zeta
    if not keep.any():
        raise EmptyRatios("all estimated offsets are numerically zero")
    return H.values[keep] / offsets[keep]


def recover_scale_median(ratios: np.ndarray) -> float:
    """Median of the per-edge ratios; even length averages the middle two."""
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.size == 0:
        raise EmptyRatios("no ratios to take the median of")
    return float(np.median(ratios))


def recover_scale_ls(H: SkewSparseMatrix, s: np.ndarray) -> float:
    """Least-squares scale: sum of measurements over sum of estimated offsets."""
    denom = float(H.offsets(s).sum())
    if denom == 0.0:
        raise ZeroDenominator("estimated offsets sum to zero")
    return float(H.values.sum()) / denom


def _tau_or_nan(H: SkewSparseMatrix, s: np.ndarray) -> float:
    """Median-of-ratios scale of ``s`` against H, or NaN when no ratio survives."""
    try:
        return recover_scale_median(compute_ratio_entries(H, s))
    except EmptyRatios:
        return math.nan


def reconcile_sign(s: np.ndarray, H: SkewSparseMatrix) -> int:
    """Sign in {-1, +1} whose induced offsets give fewer upsets; tie -> +1."""
    up_pos = count_upsets(H, s)
    up_neg = count_upsets(H, -np.asarray(s, dtype=np.float64))
    return -1 if up_neg < up_pos else 1


def _scale_and_package(H: SkewSparseMatrix, s: np.ndarray, u_tilde: np.ndarray,
                       pair: SpectralPair, method: str,
                       scale_from: SkewSparseMatrix | None) -> RankingResult:
    source = H if scale_from is None else scale_from
    beta = reconcile_sign(s, source)
    tau = _tau_or_nan(source, s)
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
    helps under skewed degree distributions. The ranking statistic is
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
    H_ss = H.scaled(d_isqrt)
    pair = top2_svd(H_ss, seed=seed)
    u_tilde = orthonormal_complement_in_span(d_isqrt, pair)
    s = np.sqrt(d) * u_tilde
    return _scale_and_package(H, s, u_tilde, pair, "svd_nrs", scale_from)
