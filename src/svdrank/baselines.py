"""Row-sum and least-squares ranking baselines, plus completion preprocessing.

The least-squares ranking solves ``min ||Bx - w||^2`` where B is the
edge-vertex incidence matrix of the measurement edge list (+1 at the row
endpoint, -1 at the column endpoint of each stored pair) and w the measured
offsets. The normal-equation matrix B^T B is the graph
Laplacian, singular exactly on the all-ones direction; conjugate gradient
started at zero stays orthogonal to it and converges to the centered
minimum-norm solution.

Matrix completion fills the unobserved entries of the rank-2 offset matrix
by accelerated proximal gradient on a nuclear-norm penalty: a momentum
extrapolation, a data-consistency step on the observed entries, then
singular-value soft-thresholding, with the diagonal pinned to zero each
iterate and the final iterate skew-symmetrized as (X - X^T) / 2. The
threshold follows one fixed geometric schedule: it starts at ``SVT_START``
sqrt(n p_hat) times the mean observed magnitude (p_hat the observed share
of off-diagonal entries), shrinks by ``SVT_DECAY`` per iteration and stops
at ``SVT_FLOOR`` times its start, which reproduces the equality-constrained
behaviour on clean data; the constrained noisy formulation (with an
explicit residual radius) is intentionally not exposed.

The soft-thresholding forms only the singular triplets above the threshold
(soft-impute, Mazumder, Hastie & Tibshirani 2010): a block Krylov range
finder (Halko, Martinsson & Tropp 2011), warm-started from the previous
iterate's right singular vectors, followed by a Rayleigh-Ritz step. A
result is kept only when it shows a singular value at or below the
threshold and every kept triplet has a residual of at most ``SVT_TOL``
times the largest; otherwise, or when the basis would span R^n, the full
dense SVD is taken instead. The iterate itself stays a dense n x n array.
The coherence of the true scores is a model statistic, in ``theory``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import RankingResult, _tau_or_nan, center
from .errors import GraphDisconnected, InvalidParam, NotConverged
from .linalg import SkewSparseMatrix

SVT_TOL = 1e-12  # kept triplets need ||Y v - sigma u|| <= SVT_TOL * sigma_1
SVT_EXTRA = 4    # Gaussian columns beside the warm start
SVT_BLOCKS = 3   # Krylov blocks in the basis: Y S, (Y Y^T) Y S, (Y Y^T)^2 Y S
SVT_START = 2.5   # first threshold, in units of sqrt(n p_hat) * mean |observed value|
SVT_DECAY = 0.92  # threshold factor per iteration
SVT_FLOOR = 1e-9  # last threshold, relative to the first
COMPLETION_N_LIMIT = 2000  # the completion iterate is a dense n x n array


def rowsum_rank(H: SkewSparseMatrix) -> RankingResult:
    """Rank by centered row sums of the measurement matrix."""
    if H.n < 2:
        raise InvalidParam("need n >= 2")
    scores = center(H.node_sums(H.values))
    tau = _tau_or_nan(H, scores, H.offsets(scores))
    return RankingResult(score_estimate=scores, beta=1, tau=tau, method="rowsum")


def least_squares_rank(H: SkewSparseMatrix, tol: float = 1e-10,
                       max_iter: int = 1000) -> RankingResult:
    """Centered minimum-norm least-squares scores by conjugate gradient.

    Solves the normal equations B^T B x = B^T w for the incidence system of
    H's edge list without forming B^T B; each iteration applies the graph
    Laplacian through the edge list. Stops at relative residual ``tol``;
    raises GraphDisconnected for a disconnected graph and NotConverged
    (carrying the partial result) past ``max_iter``.
    """
    n = H.n
    if n < 2:
        raise InvalidParam("need n >= 2")
    if not H.is_connected:
        raise GraphDisconnected("incidence graph is not connected")

    b = H.node_sums(H.values)
    # Solve for 2^-e x, with 2^(e-1) <= max |b| < 2^e: the Laplacian does not
    # read the values, and alpha and the stopping test are scale-invariant,
    # so the exact power-of-two scale keeps r^T r finite at any input scale.
    e = math.frexp(float(np.abs(b).max()))[1]
    b = np.ldexp(b, -e)
    b_norm = np.linalg.norm(b)
    x = np.zeros(n)
    if b_norm == 0.0:
        scores = x
    else:
        r = b.copy()
        p = r.copy()
        rs = float(r @ r)
        converged = False
        for _ in range(max_iter):
            Ap = H.node_sums(H.offsets(p))  # the graph Laplacian B^T B applied to p
            alpha = rs / float(p @ Ap)
            x += alpha * p
            r -= alpha * Ap
            rs_new = float(r @ r)
            if np.sqrt(rs_new) <= tol * b_norm:
                converged = True
                break
            p = r + (rs_new / rs) * p
            rs = rs_new
        scores = np.ldexp(x - x.mean(), e)  # kill roundoff drift off the centered subspace
        if not converged:
            raise NotConverged("conjugate gradient did not reach tolerance",
                               result=scores,
                               residual=float(np.sqrt(rs) / b_norm),
                               iterations=max_iter)
    tau = _tau_or_nan(H, scores, H.offsets(scores))
    return RankingResult(score_estimate=scores, beta=1, tau=tau, method="least_squares")


@dataclass(frozen=True)
class CompletionConfig:
    """Stopping rule for the nuclear-norm completion solver.

    The solver stops after ``max_iter`` iterations, or earlier once the
    threshold has reached its floor (see the module docstring) and the
    relative change of the iterate is at most ``tol``.
    """

    max_iter: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        if self.max_iter < 1 or self.tol <= 0:
            raise InvalidParam("max_iter, tol must be positive")


@dataclass(frozen=True)
class CompletionResult:
    matrix: np.ndarray
    converged: bool
    iterations: int
    rel_change: float
    effective_rank: int

    def to_sparse(self) -> SkewSparseMatrix:
        return SkewSparseMatrix.from_dense(self.matrix)


def _soft_threshold(Y: np.ndarray, lam: float,
                    V0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Soft-threshold the singular values of Y at ``lam``.

    Returns ``(U * (s - lam), V)`` over the singular triplets (u, s, v) of Y
    with s > lam, so that the thresholded matrix is ``(U * (s - lam)) @ V.T``.
    The block Krylov basis starts from ``V0`` (the previous kept right
    singular vectors) plus Gaussian columns from a fixed seed, an even number
    in all, since a skew-symmetric Y has its singular values in pairs. One
    try is made; a rejected one falls back to the dense SVD of Y.
    """
    n = Y.shape[0]
    b = V0.shape[1] + SVT_EXTRA + V0.shape[1] % 2
    if SVT_BLOCKS * b < n:
        rng = np.random.default_rng(0)
        start = np.hstack([V0, rng.standard_normal((n, b - V0.shape[1]))])
        Q = np.linalg.qr(Y @ start)[0]
        for _ in range(SVT_BLOCKS - 1):
            Z = Y @ (Y.T @ Q[:, -b:])
            Q = np.hstack([Q, np.linalg.qr(Z - Q @ (Q.T @ Z))[0]])
        # One pass of projection leaves Q orthonormal only while the blocks
        # are independent; Householder QR keeps it so when they are not.
        Q = np.linalg.qr(Q)[0]
        Ub, s, Vt = np.linalg.svd(Q.T @ Y, full_matrices=False)
        k = int(np.count_nonzero(s > lam))
        U, V = Q @ Ub[:, :k], Vt[:k].T
        residual = np.linalg.norm(Y @ V - U * s[:k], axis=0)
        if k < s.size and np.all(residual <= SVT_TOL * s[0]):
            return U * (s[:k] - lam), V
    U, s, Vt = np.linalg.svd(Y, full_matrices=False)
    k = int(np.count_nonzero(s > lam))
    return U[:, :k] * (s[:k] - lam), Vt[:k].T


def complete_matrix(m: SkewSparseMatrix, cfg: CompletionConfig = CompletionConfig()) -> CompletionResult:
    """Fill the unobserved offsets by soft-thresholded proximal iteration.

    Each iteration forms only the singular triplets above the current
    threshold (see the module docstring); the iterate itself is a dense
    n x n array, so n beyond ``COMPLETION_N_LIMIT`` is refused. Returns the
    skew-symmetrized estimate (X - X^T) / 2 together with convergence
    diagnostics; an empty observation set yields the zero matrix flagged as
    not converged.
    """
    n = m.n
    if n > COMPLETION_N_LIMIT:
        raise InvalidParam(f"dense completion limited to n <= {COMPLETION_N_LIMIT}")
    if m.num_entries == 0:
        return CompletionResult(matrix=np.zeros((n, n)), converged=False,
                                iterations=0, rel_change=math.inf, effective_rank=0)
    # Solve for the values times 2^-e, with 2^(e-1) <= max_abs < 2^e, as
    # top2_svd does: a power-of-two scale is exact, so results keep their
    # bits while no square inside the SVDs can overflow or underflow.
    e = math.frexp(m.max_abs)[1]
    obs_i = np.concatenate([m.rows, m.cols])
    obs_j = np.concatenate([m.cols, m.rows])
    obs_v = np.ldexp(np.concatenate([m.values, -m.values]), -e)
    p_hat = obs_i.size / (n * (n - 1))
    lam = SVT_START * np.sqrt(n * p_hat) * float(np.mean(np.abs(obs_v)))
    lam = max(lam, np.finfo(float).tiny)
    floor = SVT_FLOOR * lam
    unit = math.ldexp(1.0, min(-e, 1023))  # 1.0 in input units; 2^1024 would overflow

    X = np.zeros((n, n))
    X_prev = X
    V = np.zeros((n, 0))
    t_momentum = 1.0
    rel = math.inf
    rank = 0
    it = 0
    converged = False
    for it in range(1, cfg.max_iter + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum ** 2))
        Y = X + ((t_momentum - 1.0) / t_next) * (X - X_prev)
        t_momentum = t_next
        Y[obs_i, obs_j] -= Y[obs_i, obs_j] - obs_v
        np.fill_diagonal(Y, 0.0)
        US, V = _soft_threshold(Y, lam, V)
        rank = V.shape[1]
        X_new = US @ V.T
        np.fill_diagonal(X_new, 0.0)
        rel = np.linalg.norm(X_new - X, "fro") / max(np.linalg.norm(X, "fro"), unit)
        X_prev, X = X, X_new
        if rel <= cfg.tol and lam <= floor * (1 + 1e-12):
            converged = True
            break
        lam = max(lam * SVT_DECAY, floor)
    return CompletionResult(matrix=np.ldexp(0.5 * (X - X.T), e), converged=converged,
                            iterations=it, rel_change=float(rel), effective_rank=rank)
