from __future__ import annotations

import math

import numpy as np
import pytest

from svdrank.algorithms import ranking_from_scores, svd_rs
from svdrank.baselines import (
    SVT_BLOCKS,
    SVT_EXTRA,
    CompletionConfig,
    _soft_threshold,
    coherence,
    complete_matrix,
    least_squares_rank,
    rowsum_rank,
)
from svdrank.errors import DegenerateScores, GraphDisconnected, InvalidParam, NotConverged
from svdrank.linalg import SkewSparseMatrix
from svdrank.metrics import kendall_distance
from svdrank.model import EROParams, ScoreVector, generate_ero, generate_scores

from matrix_helpers import noiseless_matrix


def random_connected_measurements(n, p, rng, scale=1.0):
    """Spanning path plus random extra edges, with Gaussian measurements."""
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    keep[ju - iu == 1] = True  # path 0-1-...-n keeps it connected
    i, j = iu[keep], ju[keep]
    return i, j, scale * rng.standard_normal(i.size)


class TestRowsum:
    def test_noiseless_recovers_truth(self):
        r = np.array([2.0, 7.0, 4.0, 1.0])
        res = rowsum_rank(noiseless_matrix(r))
        assert np.array_equal(res.permutation, ranking_from_scores(r))

    def test_zero_matrix_identity_by_tiebreak(self):
        H = SkewSparseMatrix(4, np.array([], dtype=int), np.array([], dtype=int),
                             np.array([]))
        res = rowsum_rank(H)
        assert list(res.permutation) == [0, 1, 2, 3]
        assert np.isnan(res.tau)

    def test_matches_hand_sums(self):
        H = SkewSparseMatrix(3, np.array([0, 1]), np.array([1, 2]),
                             np.array([2.0, -3.0]))
        res = rowsum_rank(H)
        sums = np.array([2.0, -5.0, 3.0])  # row sums of the dense completion
        assert np.allclose(res.score_estimate, sums - sums.mean())


class TestLeastSquares:
    def test_tree_exact(self):
        # path 0-1-2 with offsets fixing x = (3, 1, 2) up to shift
        H = SkewSparseMatrix(3, np.array([0, 1]), np.array([1, 2]),
                             np.array([2.0, -1.0]))
        res = least_squares_rank(H)
        truth = np.array([3.0, 1.0, 2.0])
        assert np.allclose(res.score_estimate, truth - truth.mean(), atol=1e-9)

    def test_single_edge(self):
        H = SkewSparseMatrix(2, np.array([0]), np.array([1]), np.array([4.0]))
        res = least_squares_rank(H)
        assert np.allclose(res.score_estimate, [2.0, -2.0], atol=1e-10)

    def test_centered_solution(self, rng):
        i, j, w = random_connected_measurements(40, 0.1, rng)
        res = least_squares_rank(SkewSparseMatrix(40, i, j, w))
        assert abs(res.score_estimate.sum()) < 1e-8

    def test_matches_pseudoinverse_oracle(self, rng):
        for _ in range(5):
            n = int(rng.integers(10, 51))
            i, j, w = random_connected_measurements(n, 0.15, rng)
            res = least_squares_rank(SkewSparseMatrix(n, i, j, w), tol=1e-12)
            B = np.zeros((i.size, n))
            B[np.arange(i.size), i] = 1.0
            B[np.arange(i.size), j] = -1.0
            oracle = np.linalg.pinv(B) @ w
            oracle -= oracle.mean()
            assert np.linalg.norm(res.score_estimate - oracle) < 1e-6

    def test_disconnected(self):
        H = SkewSparseMatrix(4, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(GraphDisconnected):
            least_squares_rank(H)

    def test_not_converged_carries_partial(self, rng):
        i, j, w = random_connected_measurements(30, 0.3, rng)
        with pytest.raises(NotConverged) as info:
            least_squares_rank(SkewSparseMatrix(30, i, j, w), tol=1e-14, max_iter=1)
        assert info.value.result is not None


class TestCompletion:
    def test_fully_observed_noiseless(self):
        scores = generate_scores("linear", 15)
        mset = generate_ero(scores, EROParams(n=15, p=1.0, eta=1.0, seed=0))
        comp = complete_matrix(mset)
        C = noiseless_matrix(scores.values).to_dense()
        assert comp.converged
        assert np.linalg.norm(comp.matrix - C) <= 1e-8 * np.linalg.norm(C)

    def test_empty_observations(self):
        mset = SkewSparseMatrix(6, np.array([], dtype=int), np.array([], dtype=int),
                                np.array([]))
        comp = complete_matrix(mset)
        assert not comp.converged
        assert np.array_equal(comp.matrix, np.zeros((6, 6)))

    def test_partial_rank2_recovery(self):
        scores = generate_scores("linear", 60)
        mset = generate_ero(scores, EROParams(n=60, p=0.4, eta=1.0, seed=3))
        comp = complete_matrix(mset)
        C = noiseless_matrix(scores.values).to_dense()
        rel = np.linalg.norm(comp.matrix - C) / np.linalg.norm(C)
        assert rel < 1e-3
        assert comp.matrix.trace() == 0.0
        assert np.allclose(comp.matrix, -comp.matrix.T)

    def test_pipeline_preserves_noiseless_ranking(self):
        scores = generate_scores("linear", 60)
        mset = generate_ero(scores, EROParams(n=60, p=0.4, eta=1.0, seed=4))
        comp = complete_matrix(mset)
        from svdrank.model import build_H

        res = svd_rs(comp.to_sparse(), scale_from=build_H(mset))
        truth = ranking_from_scores(scores.values)
        assert kendall_distance(truth, res.permutation) == 0

    def test_size_limit(self):
        mset = SkewSparseMatrix(2001, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(InvalidParam, match="dense completion limited to n <= 2000"):
            complete_matrix(mset)

    def test_large_input_scale(self):
        # Unscaled, numpy's SVD fails to converge on these values.
        scores = generate_scores("linear", 60)
        mset = generate_ero(scores, EROParams(n=60, p=0.3, eta=1.0, seed=3))
        big = SkewSparseMatrix(60, mset.rows, mset.cols, mset.values * 1e193)
        comp = complete_matrix(big)
        assert comp.converged
        C = complete_matrix(mset).matrix
        assert np.linalg.norm(comp.matrix / 1e193 - C) <= 1e-10 * np.linalg.norm(C)
        res = svd_rs(comp.to_sparse(), scale_from=big)
        assert kendall_distance(ranking_from_scores(scores.values), res.permutation) == 0

    def test_power_of_two_scale_is_exact(self):
        mset = generate_ero(generate_scores("linear", 60), EROParams(n=60, p=0.3, eta=1.0, seed=3))
        comp = complete_matrix(mset)
        for k in (-1000, 900):
            scaled = complete_matrix(SkewSparseMatrix(60, mset.rows, mset.cols,
                                                      np.ldexp(mset.values, k)))
            assert np.array_equal(scaled.matrix, np.ldexp(comp.matrix, k))
            assert (scaled.iterations, scaled.converged, scaled.effective_rank) == (
                comp.iterations, comp.converged, comp.effective_rank)


def dense_complete(m, cfg=CompletionConfig()):
    """Reference completion: the proximal loop with one full dense SVD per iteration."""
    n = m.n
    obs_i = np.concatenate([m.rows, m.cols])
    obs_j = np.concatenate([m.cols, m.rows])
    obs_v = np.concatenate([m.values, -m.values])
    p_hat = obs_i.size / (n * (n - 1))
    lam = cfg.threshold
    if lam is None:
        lam = 2.5 * np.sqrt(n * p_hat) * float(np.mean(np.abs(obs_v)))
        lam = max(lam, np.finfo(float).tiny)
    floor = cfg.floor if cfg.floor is not None else 1e-9 * lam
    X = np.zeros((n, n))
    X_prev = X
    t_momentum = 1.0
    for it in range(1, cfg.max_iter + 1):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_momentum ** 2))
        Y = X + ((t_momentum - 1.0) / t_next) * (X - X_prev)
        t_momentum = t_next
        Y[obs_i, obs_j] -= cfg.step * (Y[obs_i, obs_j] - obs_v)
        np.fill_diagonal(Y, 0.0)
        U, s, Vt = np.linalg.svd(Y, full_matrices=False)
        s = np.maximum(s - lam, 0.0)
        rank = int(np.count_nonzero(s))
        X_new = (U[:, :rank] * s[:rank]) @ Vt[:rank]
        np.fill_diagonal(X_new, 0.0)
        rel = np.linalg.norm(X_new - X, "fro") / max(np.linalg.norm(X, "fro"), 1.0)
        X_prev, X = X, X_new
        if rel <= cfg.tol and lam <= floor * (1 + 1e-12):
            return 0.5 * (X - X.T), it, True, rank
        lam = max(lam * cfg.decay, floor)
    return 0.5 * (X - X.T), it, False, rank


class TestCompletionOracle:
    """``complete_matrix`` against the loop that takes a full SVD every iteration."""

    @pytest.mark.parametrize("n, p, eta, seed", [
        (60, 0.4, 1.0, 3),   # clean, kept rank 2
        (60, 0.3, 1.0, 3),   # clean but under-sampled: kept rank past the first block
        (200, 0.3, 1.0, 1),  # the benchmark's completion size
        (80, 0.3, 0.7, 5),   # noisy: kept rank reaches the dense limit
        (2, 1.0, 1.0, 0),
        (3, 1.0, 1.0, 0),
        (5, 1.0, 1.0, 0),
        (5, 1.0, 0.7, 1),
    ])
    def test_matches_full_svd(self, n, p, eta, seed):
        mset = generate_ero(generate_scores("linear", n), EROParams(n=n, p=p, eta=eta, seed=seed))
        comp = complete_matrix(mset)
        matrix, iterations, converged, rank = dense_complete(mset)
        assert np.linalg.norm(comp.matrix - matrix) <= 1e-10 * np.linalg.norm(matrix)
        assert (comp.iterations, comp.converged, comp.effective_rank) == (iterations, converged, rank)
        assert np.array_equal(complete_matrix(mset).matrix, comp.matrix)

    def test_noisy_case_reaches_dense_limit(self):
        n = 80
        mset = generate_ero(generate_scores("linear", n), EROParams(n=n, p=0.3, eta=0.7, seed=5))
        rank = complete_matrix(mset).effective_rank
        assert SVT_BLOCKS * (rank + SVT_EXTRA) >= n  # a basis warm-started from rank columns spans R^n


def dense_soft_threshold(Y, lam):
    U, s, Vt = np.linalg.svd(Y)
    return (U * np.maximum(s - lam, 0.0)) @ Vt


class TestSoftThreshold:
    """``_soft_threshold`` against the soft-threshold of a full dense SVD of the same Y."""

    @staticmethod
    def low_rank_skew(n, rng):
        A = rng.standard_normal((n, 2)) @ rng.standard_normal((2, n))
        return A - A.T  # rank 4, singular values in two pairs

    @staticmethod
    def svd_shapes(Y, lam, V0, monkeypatch):
        """Run ``_soft_threshold`` and return the input shape of every SVD it takes."""
        shapes, svd = [], np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        US, V = _soft_threshold(Y, lam, V0)
        monkeypatch.setattr(np.linalg, "svd", svd)
        return US, V, shapes

    def test_low_rank_try_accepted(self, rng, monkeypatch):
        n = 100
        Y = self.low_rank_skew(n, rng)
        lam = 0.5 * np.linalg.svd(Y, compute_uv=False)[3]
        US, V, shapes = self.svd_shapes(Y, lam, np.zeros((n, 0)), monkeypatch)
        assert V.shape == (n, 4)
        assert shapes == [(SVT_BLOCKS * SVT_EXTRA, n)]  # the Ritz step only, no dense SVD
        want = dense_soft_threshold(Y, lam)
        assert np.linalg.norm(US @ V.T - want) <= 1e-12 * np.linalg.norm(want)

    def test_full_rank_small_threshold_falls_back(self, rng, monkeypatch):
        n = 200
        Y = rng.standard_normal((n, n))
        Y = Y - Y.T
        lam = 1e-3 * np.linalg.norm(Y, 2)
        US, V, shapes = self.svd_shapes(Y, lam, np.zeros((n, 0)), monkeypatch)
        want = dense_soft_threshold(Y, lam)
        assert V.shape[1] == np.linalg.matrix_rank(want)
        assert shapes[-1] == (n, n)  # the dense fallback
        assert np.linalg.norm(US @ V.T - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("kept", [0, 6])
    def test_one_truncated_try_then_dense(self, rng, monkeypatch, kept):
        # a rejected try goes straight to the dense SVD; the block is never enlarged
        n = 200
        Y = rng.standard_normal((n, n))
        Y = Y - Y.T
        V0 = np.linalg.qr(rng.standard_normal((n, kept)))[0]
        b = kept + SVT_EXTRA
        _, _, shapes = self.svd_shapes(Y, 1e-3 * np.linalg.norm(Y, 2), V0, monkeypatch)
        assert shapes == [(SVT_BLOCKS * b, n), (n, n)]


class TestCoherence:
    def test_linear_scores_near_one(self):
        scores = generate_scores("linear", 100)
        mu = coherence(scores)
        r = scores.values
        alpha = r.mean()
        direct = max((r.max() - alpha) * np.sqrt(100) / np.linalg.norm(r - alpha), 1.0)
        assert mu == pytest.approx(direct)
        assert 1.0 <= mu <= 4.0

    def test_single_spike_is_incoherent(self):
        r = np.zeros(50)
        r[-1] = 10.0
        assert coherence(ScoreVector(r)) > 5.0

    def test_constant_scores_degenerate(self):
        with pytest.raises(DegenerateScores):
            coherence(ScoreVector(np.full(10, 2.0)))
