"""Spectral ranking-and-synchronization pipelines with scale recovery.

Both pipelines share the same skeleton: take the top-2 left singular
subspace of the (possibly degree-normalized) measurement matrix, project
the constant direction onto it, and rank by the in-span unit vector
orthogonal to that projection. The global sign is reconciled against the
measurements by minimizing upsets, and the global scale by the median of
per-edge ratios between measured and estimated offsets.

The recovered scale carries the orientation of the final scores: a negative
median ratio flips the score vector, which is exactly what happens on
heavily contaminated instances. The upset-minimizing sign ``beta`` is
reported alongside for diagnostics.

Everything here is a pure function of immutable inputs; concurrent
invocation is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    project_onto_span,
    top2_svd,
)
from .metrics import count_upsets


@dataclass(frozen=True)
class RankingResult:
    """Estimated ranking plus the centered score estimate and diagnostics.

    ``permutation`` maps rank position to item (best first) and is the
    stable descending sort of ``score_estimate`` with ties broken by item
    index. ``raw_scores`` is the unscaled ranking statistic (the in-span
    unit vector, degree-rescaled for the normalized variant) and
    ``direction`` the in-span unit vector itself; both are kept so scale and
    subspace errors can be inspected after the fact.
    """

    permutation: np.ndarray
    score_estimate: np.ndarray
    beta: int
    tau: float
    method: str
    spectral: SpectralPair | None = None
    direction: np.ndarray | None = None
    raw_scores: np.ndarray | None = None

    def __post_init__(self):
        perm = np.asarray(self.permutation, dtype=np.int64)
        scores = np.asarray(self.score_estimate, dtype=np.float64)
        perm.setflags(write=False)
        scores.setflags(write=False)
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "score_estimate", scores)

    @property
    def n(self) -> int:
        return int(self.score_estimate.size)


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
    try:
        tau = recover_scale_median(compute_ratio_entries(source, s))
    except EmptyRatios:
        tau = math.nan
    scores = center((tau if math.isfinite(tau) else 1.0) * s)
    return RankingResult(permutation=ranking_from_scores(scores),
                         score_estimate=scores, beta=beta, tau=tau,
                         method=method, spectral=pair, direction=u_tilde,
                         raw_scores=s)


def svd_rs(H: SkewSparseMatrix, tol: float = 1e-10, max_iter: int = 2000,
           seed: int = 0, scale_from: SkewSparseMatrix | None = None) -> RankingResult:
    """Rank and score n items from a skew-symmetric measurement matrix.

    Pipeline: top-2 SVD of H; project e/sqrt(n) onto the singular span;
    take the in-span unit vector orthogonal to that projection; resolve the
    global sign by upset minimization and the global scale by the median of
    per-edge ratios; center. The measurement graph must be connected.

    ``scale_from`` restricts sign and scale recovery to a different edge set
    (used when H itself was densified by matrix completion: ratios must only
    use originally observed pairs).
    """
    if not H.is_connected:
        raise GraphDisconnected("measurement graph is not connected")
    pair = top2_svd(H, tol=tol, max_iter=max_iter, seed=seed)
    e_unit = np.full(H.n, 1.0 / np.sqrt(H.n))
    u_bar = project_onto_span(e_unit, pair)
    u_tilde = orthonormal_complement_in_span(u_bar, pair)
    return _scale_and_package(H, u_tilde, u_tilde, pair, "svd_rs", scale_from)


def svd_nrs(H: SkewSparseMatrix, tol: float = 1e-10, max_iter: int = 2000,
            seed: int = 0, scale_from: SkewSparseMatrix | None = None) -> RankingResult:
    """Degree-normalized variant of :func:`svd_rs`.

    Works on D^{-1/2} H D^{-1/2} with D the absolute-degree diagonal, which
    helps under skewed degree distributions. The ranking statistic is
    D^{1/2} u_tilde, and scale recovery uses that same statistic. Requires
    every node to have at least one measurement.
    """
    d = H.abs_row_sums()
    if np.any(d <= 0.0):
        raise IsolatedNode("some node has no incident measurement")
    if not H.is_connected:
        raise GraphDisconnected("measurement graph is not connected")
    d_isqrt = 1.0 / np.sqrt(d)
    H_ss = H.scaled(d_isqrt)
    pair = top2_svd(H_ss, tol=tol, max_iter=max_iter, seed=seed)
    ref = d_isqrt / np.linalg.norm(d_isqrt)
    u_bar = project_onto_span(ref, pair)
    u_tilde = orthonormal_complement_in_span(u_bar, pair)
    s = np.sqrt(d) * u_tilde
    return _scale_and_package(H, s, u_tilde, pair, "svd_nrs", scale_from)
