from __future__ import annotations

import numpy as np
import pytest

from svdrank.errors import GraphDisconnectedWarning, InvalidParam
from svdrank.linalg import SkewSparseMatrix
from svdrank.model import (
    EROParams,
    ScoreVector,
    build_H,
    generate_ero,
    generate_scores,
)


class TestGenerateScores:
    def test_linear(self):
        scores = generate_scores("linear", 3)
        assert np.array_equal(scores.values, [1.0, 2.0, 3.0])
        assert scores.M == 3.0

    def test_gamma_moment(self):
        # mean of Gamma(a, b) is a*b with variance a*b^2
        a, b, n = 0.5, 1.0, 10_000
        scores = generate_scores("gamma", n, seed=5, a=a, b=b)
        se = np.sqrt(a * b * b / n)
        assert abs(scores.values.mean() - a * b) < 3 * se

    def test_uniform_moment(self):
        n = 10_000
        scores = generate_scores("uniform01", n, seed=6)
        se = np.sqrt(1.0 / 12.0 / n)
        assert abs(scores.values.mean() - 0.5) < 3 * se

    def test_deterministic_given_seed(self):
        a = generate_scores("uniform01", 50, seed=9)
        b = generate_scores("uniform01", 50, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_invalid(self):
        with pytest.raises(InvalidParam):
            generate_scores("cauchy", 10)
        with pytest.raises(InvalidParam):
            generate_scores("gamma", 10, a=-1.0)
        with pytest.raises(InvalidParam):
            generate_scores("linear", 1)


class TestGenerateEro:
    def test_full_noiseless(self):
        scores = ScoreVector(np.array([1.0, 2.0, 3.0]))
        mset = generate_ero(scores, EROParams(n=3, p=1.0, eta=1.0, seed=0))
        assert mset.num_entries == 3
        dense = build_H(mset).to_dense()
        r = scores.values
        assert np.allclose(dense, np.outer(r, np.ones(3)) - np.outer(np.ones(3), r))

    def test_p_zero_empty(self):
        scores = generate_scores("uniform01", 10, seed=1)
        mset = generate_ero(scores, EROParams(n=10, p=0.0, eta=0.5, seed=2))
        assert mset.num_entries == 0

    def test_edge_count_concentrates(self):
        n, p = 500, 0.2
        N = n * (n - 1) // 2
        scores = generate_scores("uniform01", n, seed=3)
        mset = generate_ero(scores, EROParams(n=n, p=p, eta=0.8, seed=4))
        assert abs(mset.num_entries - N * p) < 3 * np.sqrt(N * p * (1 - p))

    def test_outlier_values_bounded(self):
        scores = generate_scores("uniform01", 60, seed=7)
        mset = generate_ero(scores, EROParams(n=60, p=0.5, eta=0.0, seed=8))
        assert np.all(np.abs(mset.values) <= scores.M)

    def test_expected_matrix(self):
        # empirical mean of H over many draws approaches eta * p * (r_i - r_j)
        n, p, eta, trials = 50, 0.5, 0.7, 2000
        scores = generate_scores("uniform01", n, seed=11)
        r = scores.values
        M = scores.M
        iu, ju = np.triu_indices(n, 1)
        acc = np.zeros(iu.size)
        for t in range(trials):
            mset = generate_ero(scores, EROParams(n=n, p=p, eta=eta, seed=1000 + t))
            dense_upper = np.zeros((n, n))
            dense_upper[mset.rows, mset.cols] = mset.values
            acc += dense_upper[iu, ju]
        mean = acc / trials
        diff = r[iu] - r[ju]
        expec = eta * p * diff
        second = eta * p * diff ** 2 + (1 - eta) * p * M ** 2 / 3.0
        se = np.sqrt(np.maximum(second - expec ** 2, 1e-12) / trials)
        assert np.max(np.abs(mean - expec) / se) < 5.0


class TestBuildH:
    def test_empty_warns_disconnected(self):
        empty = SkewSparseMatrix(3, np.array([], dtype=int), np.array([], dtype=int),
                                 np.array([]))
        with pytest.warns(GraphDisconnectedWarning):
            H = build_H(empty)
        assert np.array_equal(H.to_dense(), np.zeros((3, 3)))

    def test_single_edge(self):
        mset = SkewSparseMatrix(2, np.array([0]), np.array([1]), np.array([2.0]))
        dense = build_H(mset).to_dense()
        assert dense[0, 1] == 2.0 and dense[1, 0] == -2.0

    def test_connected_no_warning(self, recwarn):
        mset = SkewSparseMatrix(2, np.array([0]), np.array([1]), np.array([2.0]))
        build_H(mset)
        assert not [w for w in recwarn if issubclass(w.category, GraphDisconnectedWarning)]


def test_score_vector_validation():
    with pytest.raises(InvalidParam):
        ScoreVector(np.array([-1.0, 2.0]))
    with pytest.raises(InvalidParam):
        ScoreVector(np.array([1.0]))


def test_ero_params_validation():
    with pytest.raises(InvalidParam):
        EROParams(n=1, p=0.5, eta=0.5)
    with pytest.raises(InvalidParam):
        EROParams(n=5, p=1.5, eta=0.5)
    with pytest.raises(InvalidParam):
        EROParams(n=5, p=0.5, eta=-0.1)
