from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from svdrank.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidParam,
    NotConverged,
    ZeroProjection,
)
from svdrank import linalg
from svdrank.linalg import (
    LANCZOS_BASIS,
    ScaledOperator,
    SkewSparseMatrix,
    SpectralPair,
    _ritz_pairs,
    component_labels,
    orthonormal_complement_in_span,
    top2_svd,
)
from svdrank.model import EROParams, build_H, generate_ero, generate_scores

from matrix_helpers import make_skew_dense, noiseless_matrix


def random_sparse(n, density, rng):
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < density
    return SkewSparseMatrix(n, iu[keep], ju[keep], rng.standard_normal(int(keep.sum())))


def subspace_sine(pair, U):
    """Sine of the largest principal angle between span{u1, u2} and U's columns."""
    span = pair.basis
    return np.linalg.norm(U - span @ (span.T @ U), 2)


def skew_with_singular_values(pairs, rng, n=None):
    """Dense n x n skew matrix Q B Q^T whose nonzero singular values are ``pairs``, each twice.

    n defaults to 2 len(pairs), where the matrix has full rank.
    """
    r = 2 * len(pairs)
    Q, _ = np.linalg.qr(rng.standard_normal((n or r, r)))
    B = np.zeros((r, r))
    for k, s in enumerate(pairs):
        B[2 * k, 2 * k + 1], B[2 * k + 1, 2 * k] = s, -s
    dense = Q @ B @ Q.T
    return 0.5 * (dense - dense.T)


@pytest.fixture
def count_matvecs(monkeypatch):
    """Record every H.matvec call; each must be on a real vector."""
    calls = []
    real = SkewSparseMatrix.matvec

    def counted(self, x):
        assert np.isrealobj(x)
        calls.append(1)
        return real(self, x)

    monkeypatch.setattr(SkewSparseMatrix, "matvec", counted)
    return calls


class TestSkewSparseMatrix:
    def test_rejects_bad_entries(self):
        with pytest.raises(InvalidParam):
            SkewSparseMatrix(3, np.array([1]), np.array([1]), np.array([1.0]))
        with pytest.raises(InvalidParam):
            SkewSparseMatrix(3, np.array([2]), np.array([1]), np.array([1.0]))
        with pytest.raises(InvalidParam):
            SkewSparseMatrix(3, np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidParam):
            SkewSparseMatrix(3, np.array([0]), np.array([3]), np.array([1.0]))
        with pytest.raises(InvalidParam):  # unsorted input with a repeated pair
            SkewSparseMatrix(3, np.array([0, 0, 0]), np.array([2, 1, 2]),
                             np.array([1.0, 2.0, 3.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidParam):
                SkewSparseMatrix(3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, bad]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_value_range_is_a_sum_of_magnitudes(self):
        rows, cols = np.array([0, 1, 2]), np.array([1, 2, 3])
        at_limit = np.ldexp([0.5, -0.375, 0.125], 1021)
        assert np.abs(SkewSparseMatrix(4, rows, cols, at_limit).values).sum() == 2.0 ** 1021
        past = at_limit.copy()
        past[0] += 2.0 ** 970  # two units in the last place of the sum
        for values in (past,
                       np.array([1.7e308, -1.7e308, 1e308]),  # the sum overflows
                       np.ldexp([1.0, -1.0, 1.0], 1022)):  # row sums +-2^1023, offsets 2^1024
            with pytest.raises(InvalidParam, match=r"2\^1021"):
                SkewSparseMatrix(4, rows, cols, values)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_from_pairs_checks_the_summed_values(self):
        # each value is in range, their sum for the repeated pair is not
        with pytest.raises(InvalidParam, match=r"2\^1021"):
            SkewSparseMatrix.from_pairs(2, np.array([0, 0]), np.array([1, 1]),
                                        np.array([1e308, 1e308]))

    def test_accepts_unsorted_entries_in_given_order(self):
        rows, cols, values = np.array([1, 0, 0]), np.array([2, 2, 1]), np.array([1.0, 2.0, 3.0])
        H = SkewSparseMatrix(3, rows, cols, values)
        assert np.array_equal(H.rows, rows) and np.array_equal(H.cols, cols)
        assert np.array_equal(H.values, values)

    def test_dense_roundtrip(self, rng):
        H = random_sparse(12, 0.4, rng)
        back = SkewSparseMatrix.from_dense(H.to_dense())
        assert back.n == H.n
        assert np.array_equal(back.rows, H.rows)
        assert np.allclose(back.values, H.values)

    def test_from_dense_rejects_asymmetric(self):
        with pytest.raises(InvalidParam):
            SkewSparseMatrix.from_dense(np.ones((3, 3)))


class TestMatvec:
    def test_empty_matrix_gives_zero(self):
        H = SkewSparseMatrix(4, np.array([], dtype=int), np.array([], dtype=int), np.array([]))
        assert np.array_equal(H.matvec(np.ones(4)), np.zeros(4))

    def test_antisymmetry_two_nodes(self):
        H = SkewSparseMatrix(2, np.array([0]), np.array([1]), np.array([3.0]))
        assert np.allclose(H.matvec(np.array([1.0, 0.0])), [0.0, -3.0])

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            H = random_sparse(15, 0.5, rng)
            x = rng.standard_normal(15)
            assert np.allclose(H.matvec(x), H.to_dense() @ x, atol=1e-12)

    def test_dimension_mismatch(self):
        H = SkewSparseMatrix(3, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            H.matvec(np.ones(4))

    def test_quadratic_form_vanishes(self, rng):
        # skew-symmetry forces x^T H x = 0
        for _ in range(10):
            H = random_sparse(20, 0.3, rng)
            x = rng.standard_normal(20)
            bound = 1e-10 * (x @ x) * max(H.max_abs, 1.0) * H.n
            assert abs(x @ H.matvec(x)) <= bound


def first_pairs(n, m, rng):
    """Matrix on the first m upper-triangle pairs of n nodes, Gaussian values."""
    iu, ju = np.triu_indices(n, 1)
    return SkewSparseMatrix(n, iu[:m], ju[:m], rng.standard_normal(m))


def assert_matches_dense(H, rng):
    """matvec agrees with the dense oracle; returns whether the product built the cache."""
    x = rng.standard_normal(H.n)
    expected = H.to_dense() @ x
    assert np.linalg.norm(H.matvec(x) - expected) <= 1e-12 * np.linalg.norm(expected)
    return vars(H).get("_dense") is not None


class TestDenseOperator:
    """matvec multiplies with a cached dense array exactly when 3 m >= n^2."""

    @pytest.mark.parametrize("n, m, dense", [(3, 2, False), (3, 3, True), (4, 5, False),
                                             (4, 6, True), (40, 533, False), (40, 534, True)])
    def test_matches_oracle_on_both_sides_of_threshold(self, rng, n, m, dense):
        assert assert_matches_dense(first_pairs(n, m, rng), rng) == dense

    def test_restricted_dense_matrix(self, rng):
        H = random_sparse(30, 1.0, rng)
        keep = np.ones(30, dtype=bool)
        keep[[3, 17]] = False
        assert assert_matches_dense(H.restrict(keep), rng)

    def test_empty_matrix(self, rng):
        for n in (1, 4):
            H = SkewSparseMatrix(n, np.array([], dtype=int), np.array([], dtype=int),
                                 np.array([]))
            assert np.array_equal(H.matvec(rng.standard_normal(n)), np.zeros(n))
            assert vars(H).get("_dense") is None

    def test_cache_is_read_only_and_to_dense_is_fresh(self, rng):
        H = random_sparse(10, 1.0, rng)
        x = rng.standard_normal(10)
        before = H.matvec(x)
        cached = H._dense
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 1] = 1.0
        fresh = H.to_dense()
        assert fresh.flags.writeable and fresh is not cached
        fresh[:] = 0.0
        assert H._dense is cached
        assert np.array_equal(H.matvec(x), before)

    def test_sparse_matrix_never_allocates_n_squared(self, rng):
        n = 20_000
        i, j = rng.integers(0, n, size=(2, 400_000))
        off = i != j
        H = SkewSparseMatrix.from_pairs(n, i[off], j[off], rng.standard_normal(int(off.sum())))
        x = rng.standard_normal(n)
        tracemalloc.start()
        try:
            H.matvec(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vars(H).get("_dense") is None
        assert peak < 8 * n * n


class TestTop2Svd:
    def test_noiseless_singular_identity(self):
        r = np.array([1.0, 2.0, 3.0])
        pair = top2_svd(noiseless_matrix(r))
        expected = np.sqrt(6.0)
        assert pair.sigma1 == pytest.approx(expected, rel=1e-10)
        assert pair.sigma2 == pytest.approx(expected, rel=1e-10)

    def test_zero_matrix_degenerate(self):
        H = SkewSparseMatrix(4, np.array([], dtype=int), np.array([], dtype=int), np.array([]))
        with pytest.raises(DegenerateSpectrum):
            top2_svd(H)

    def test_matches_dense_svd_oracle(self, rng):
        worst_angle = 0.0
        worst_sigma = 0.0
        for _ in range(25):
            n = int(rng.integers(5, 21))
            dense = make_skew_dense(n, rng)
            H = SkewSparseMatrix.from_dense(dense)
            pair = top2_svd(H, tol=1e-12, max_iter=5000, seed=int(rng.integers(1 << 31)))
            U, S, _ = np.linalg.svd(dense)
            span = pair.basis
            angle = np.linalg.norm(U[:, :2] - span @ (span.T @ U[:, :2]), 2)
            worst_angle = max(worst_angle, angle)
            worst_sigma = max(worst_sigma,
                              abs(pair.sigma1 - S[0]) / S[0],
                              abs(pair.sigma2 - S[1]) / S[1])
        assert worst_angle < 1e-8
        assert worst_sigma < 1e-8

    def test_residual_invariant(self, rng):
        H = random_sparse(25, 0.4, rng)
        pair = top2_svd(H, tol=1e-11)
        dense = H.to_dense()
        for u, sigma in ((pair.u1, pair.sigma1), (pair.u2, pair.sigma2)):
            res = np.linalg.norm(dense.T @ (dense @ u) - sigma ** 2 * u)
            assert res <= 1e-9 * sigma ** 2

    def test_power_of_two_scale_is_exact(self, rng, count_matvecs):
        H = random_sparse(120, 0.1, rng)
        base = top2_svd(H, seed=2)
        calls = len(count_matvecs)
        for k in (-1000, -40, -7, 5, 300, 1000):
            scaled = SkewSparseMatrix(H.n, H.rows, H.cols, np.ldexp(H.values, k))
            pair = top2_svd(scaled, seed=2)
            assert np.array_equal(pair.u1, base.u1) and np.array_equal(pair.u2, base.u2)
            assert pair.sigma1 == math.ldexp(base.sigma1, k)
            assert pair.sigma3 == math.ldexp(base.sigma3, k)
            assert (pair.residual, pair.matvecs) == (base.residual, base.matvecs)
        assert len(count_matvecs) == 7 * calls

    def test_degenerate_pair_on_expected_matrix(self, rng):
        # eta p C keeps the equal top pair; sigma1 and sigma2 must agree
        r = rng.random(30)
        H = noiseless_matrix(0.4 * 0.8 * r)
        pair = top2_svd(H)
        assert pair.sigma1 == pytest.approx(pair.sigma2, rel=1e-8)


class TestScaledOperator:
    """diag(d) H diag(d) through H's own products, as svd_nrs hands it to top2_svd."""

    @pytest.mark.parametrize("density", [1.0, 0.1])
    def test_matches_dense_oracle(self, rng, density, count_matvecs):
        H = random_sparse(50, density, rng)
        d = rng.random(50) + 0.5
        op = ScaledOperator(H, d)
        dense = d[:, None] * H.to_dense() * d
        x = rng.standard_normal(50)
        assert np.allclose(op.matvec(x), dense @ x, rtol=0, atol=1e-12)
        assert len(count_matvecs) == 1
        assert op.n == 50 and op.max_abs == np.abs(H.values * d[H.rows] * d[H.cols]).max()
        assert (vars(H).get("_dense") is not None) == (density == 1.0)

    def test_empty_and_wrong_length(self):
        H = SkewSparseMatrix(3, np.array([], dtype=int), np.array([], dtype=int), np.array([]))
        assert ScaledOperator(H, np.ones(3)).max_abs == 0.0
        with pytest.raises(DimensionMismatch):
            ScaledOperator(H, np.ones(4))


class TestBlockLanczos:
    """The restarted Lanczos solver inside top2_svd: dense-SVD oracles and matvec accounting."""

    def test_dense_oracle_odd_and_even_sizes(self, rng):
        # n up to 150 > LANCZOS_BASIS, so the larger sizes restart; small
        # n fill the whole space, where the projection is exact.
        for n in (2, 3, 4, 5, 6, 7, 11, 20, 33, 62, 63, 64, 65, 66, 67, 100, 129, 150):
            dense = make_skew_dense(n, rng)
            pair = top2_svd(SkewSparseMatrix.from_dense(dense), tol=1e-12, max_iter=5000,
                            seed=int(rng.integers(1 << 31)))
            U, S, _ = np.linalg.svd(dense)
            assert subspace_sine(pair, U[:, :2]) < 1e-8, n
            assert pair.sigma1 == pytest.approx(S[0], rel=1e-10)
            assert pair.sigma2 == pytest.approx(S[1], rel=1e-10)
            if n == 2:
                assert np.isnan(pair.sigma3)
            else:
                assert pair.sigma3 <= S[2] * (1 + 1e-12) + 1e-12, n

    def test_dense_oracle_through_restarts(self):
        # Singular values 1.0, 0.99, 0.98, ...: a small gap that needs restarts.
        # An iteration adds four basis vectors.
        rng = np.random.default_rng(5)
        dense = skew_with_singular_values(np.linspace(1.0, 0.5, 75), rng)
        pair = top2_svd(SkewSparseMatrix.from_dense(dense), tol=1e-12, max_iter=5000)
        assert 4 * pair.iterations > LANCZOS_BASIS
        U, S, _ = np.linalg.svd(dense)
        assert subspace_sine(pair, U[:, :2]) < 1e-8
        assert pair.sigma1 == pytest.approx(S[0], rel=1e-12)
        assert S[2] * (1 - 1e-6) <= pair.sigma3 <= S[2] * (1 + 1e-12)

    def test_noiseless_rank2_breaks_down_after_one_expansion(self, count_matvecs):
        # H has rank 2, so the Krylov space of the start vector has dimension
        # 3: the third step breaks down and is refilled at random, and the
        # first iteration's four steps are exact.
        r = np.random.default_rng(3).random(50)
        H = noiseless_matrix(r)
        expected = np.linalg.norm(r - r.mean()) * np.sqrt(50)
        pair = top2_svd(H)
        assert pair.iterations == 1 and len(count_matvecs) == 4
        assert pair.sigma1 == pytest.approx(expected, rel=1e-12)
        assert pair.sigma2 == pytest.approx(expected, rel=1e-12)
        truth = np.column_stack([np.ones(50), r - r.mean()])
        truth /= np.linalg.norm(truth, axis=0)
        assert subspace_sine(pair, truth) < 1e-12
        with pytest.raises(NotConverged) as info:  # below rounding: never converges
            top2_svd(H, tol=1e-17, max_iter=6)
        partial = info.value.result
        assert info.value.iterations == 6 and len(count_matvecs) == 4 + 24
        assert subspace_sine(partial, truth) < 1e-12
        assert partial.sigma3 == pytest.approx(0.0, abs=1e-6 * expected)

    def test_sparse_noisy_normalized_instance_converges(self):
        # n=2000, p=0.01, gamma=0.6, degree-normalized as svd_nrs does: block
        # power iteration stopped at residual 2e-6 after max_iter=2000 here.
        scores = generate_scores("uniform01", 2000, seed=1)
        H = build_H(generate_ero(scores, EROParams(n=2000, p=0.01, eta=0.4, seed=1)))
        d = 1.0 / np.sqrt(H.abs_row_sums())
        pair = top2_svd(ScaledOperator(H, d), seed=1)
        assert pair.residual <= 1e-10 and 4 * pair.iterations <= 240
        U, S, _ = np.linalg.svd(d[:, None] * H.to_dense() * d)
        assert subspace_sine(pair, U[:, :2]) < 1e-7
        assert pair.sigma1 == pytest.approx(S[0], rel=1e-10)
        assert S[2] * (1 - 1e-3) <= pair.sigma3 <= S[2] * (1 + 1e-12)

    def test_four_matvecs_per_iteration(self, rng, count_matvecs):
        H = random_sparse(80, 0.1, rng)
        pair = top2_svd(H)
        assert len(count_matvecs) == 4 * pair.iterations
        count_matvecs.clear()
        with pytest.raises(NotConverged) as info:
            top2_svd(H, max_iter=3)
        assert info.value.iterations == 3 and len(count_matvecs) == 12
        partial = info.value.result
        assert partial.iterations == 3 and partial.residual == info.value.residual
        assert np.isfinite(partial.sigma3) and partial.sigma3 <= partial.sigma2

    def test_second_pair_close_to_first_through_restarts(self):
        # The second singular pair sits 1e-3 below the first; more than
        # 2 * LANCZOS_BASIS steps means the basis was restarted at least twice.
        rng = np.random.default_rng(7)
        dense = skew_with_singular_values(np.linspace(1.0, 0.9, 101), rng)
        pair = top2_svd(SkewSparseMatrix.from_dense(dense), tol=1e-12, max_iter=5000)
        assert 4 * pair.iterations > 2 * LANCZOS_BASIS
        U, S, _ = np.linalg.svd(dense)
        assert subspace_sine(pair, U[:, :2]) < 1e-8
        assert pair.sigma1 == pytest.approx(S[0], rel=1e-12)
        assert pair.sigma2 == pytest.approx(S[1], rel=1e-12)
        assert S[2] * (1 - 1e-6) <= pair.sigma3 <= S[2] * (1 + 1e-12)

    def test_scaled_and_restricted_matrices(self, rng):
        H = random_sparse(200, 0.1, rng)
        d = rng.random(200) + 0.5
        sub = H.restrict(rng.random(200) < 0.8)
        for derived, dense in ((ScaledOperator(H, d), d[:, None] * H.to_dense() * d),
                               (sub, sub.to_dense())):
            pair = top2_svd(derived, tol=1e-12, max_iter=5000, seed=3)
            U, S, _ = np.linalg.svd(dense)
            assert subspace_sine(pair, U[:, :2]) < 1e-8
            assert pair.sigma1 == pytest.approx(S[0], rel=1e-10)
            assert pair.sigma2 == pytest.approx(S[1], rel=1e-10)
            assert pair.sigma3 <= S[2] * (1 + 1e-12)

    def test_same_seed_gives_identical_pair(self, rng):
        H = random_sparse(300, 0.05, rng)
        a, b = top2_svd(H, seed=11), top2_svd(H, seed=11)
        assert a.iterations == b.iterations and a.residual == b.residual
        assert np.array_equal(a.u1, b.u1) and np.array_equal(a.u2, b.u2)
        assert (a.sigma1, a.sigma2, a.sigma3) == (b.sigma1, b.sigma2, b.sigma3)

    def test_matvecs_field_counts_products(self, count_matvecs):
        restarting = SkewSparseMatrix.from_dense(
            skew_with_singular_values(np.linspace(1.0, 0.5, 75), np.random.default_rng(5)))
        pair = top2_svd(restarting, tol=1e-12, max_iter=5000)
        assert pair.matvecs == len(count_matvecs) == 4 * pair.iterations > LANCZOS_BASIS
        count_matvecs.clear()
        with pytest.raises(NotConverged) as info:
            top2_svd(restarting, max_iter=12)
        assert info.value.result.matvecs == len(count_matvecs) == 48
        # n <= LANCZOS_BASIS: the basis spans R^n after n products and takes no more.
        count_matvecs.clear()
        spanning = SkewSparseMatrix.from_dense(make_skew_dense(7, np.random.default_rng(2)))
        pair = top2_svd(spanning, tol=1e-12, max_iter=5000)
        assert pair.matvecs == len(count_matvecs) == 7 < 4 * pair.iterations
        count_matvecs.clear()
        pair = top2_svd(noiseless_matrix(np.random.default_rng(3).random(50)))  # rank 2: breaks down
        assert pair.matvecs == len(count_matvecs) == 4

    def test_rank24_refills_then_restarts(self, monkeypatch, count_matvecs):
        # Rank 24 with a tight top gap: the Krylov space of the start vector is
        # invariant at 25 vectors, so the basis breaks down and is refilled
        # before it fills and restarts, and again after the restart. A
        # tolerance below rounding keeps the solver going through both.
        refills = []
        drawn = linalg._random_direction

        def recorded(V, rng):
            refills.append(V.shape[1])
            return drawn(V, rng)

        monkeypatch.setattr(linalg, "_random_direction", recorded)
        dense = skew_with_singular_values(np.r_[1.0, 0.999, np.linspace(0.9, 0.1, 10)],
                                          np.random.default_rng(0), n=150)
        with pytest.raises(NotConverged) as info:
            top2_svd(SkewSparseMatrix.from_dense(dense), tol=1e-17, max_iter=15)
        partial = info.value.result
        assert refills[0] == 25 < LANCZOS_BASIS < 4 * partial.iterations
        assert partial.matvecs == len(count_matvecs) == 60
        U, S, _ = np.linalg.svd(dense)
        assert subspace_sine(partial, U[:, :2]) < 1e-8
        assert partial.sigma1 == pytest.approx(S[0], rel=1e-12)
        assert partial.sigma3 <= S[2] * (1 + 1e-12)

    def test_memory_is_linear_in_n_and_m(self, rng):
        n = 20_000
        i, j = rng.integers(0, n, size=(2, 400_000))
        off = i != j
        H = SkewSparseMatrix.from_pairs(n, i[off], j[off], rng.standard_normal(int(off.sum())))
        tracemalloc.start()
        try:
            # Gaussian values leave no gap: twelve iterations fill and restart the basis.
            with pytest.raises(NotConverged):
                top2_svd(H, max_iter=12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The basis and its products, plus a few m-entry temporaries of the matvec.
        assert peak < 8 * (2 * (LANCZOS_BASIS + 2) * n + 4 * H.num_entries)


def bipartite_skew(n_even, n_odd, sigma, rng, noise=0.0):
    """Skew S with S[0::2, 1::2] = X diag(sigma) W^T and Gaussian same-side noise of size ``noise``."""
    k = n_even + n_odd
    X, _ = np.linalg.qr(rng.standard_normal((n_even, len(sigma))))
    W, _ = np.linalg.qr(rng.standard_normal((n_odd, len(sigma))))
    S = make_skew_dense(k, rng) * noise
    S[0::2, 1::2] = (X * sigma) @ W.T
    S[1::2, 0::2] = -S[0::2, 1::2].T
    return S


class TestRitzPairs:
    """_ritz_pairs against the full SVD of the skew projection."""

    @pytest.mark.parametrize("n_even, n_odd", [(1, 1), (2, 1), (2, 2), (3, 2), (9, 8), (20, 20)])
    @pytest.mark.parametrize("noise", [0.0, 1e-16])
    def test_matches_full_svd(self, rng, n_even, n_odd, noise):
        for graded in (False, True):
            sigma = 3.0 * (np.geomspace(1.0, 1e-18, n_odd) if graded
                           else np.sort(rng.random(n_odd))[::-1])
            S = bipartite_skew(n_even, n_odd, sigma, rng, noise)
            theta, Y = _ritz_pairs(S, n_odd)
            full = np.linalg.svd(S, compute_uv=False)
            expected = np.concatenate([np.repeat(theta, 2), np.zeros(n_even - n_odd)])
            assert np.abs(full - expected).max() <= 1e-13 * theta[0]
            assert np.abs(Y.T @ Y - np.eye(2 * n_odd)).max() <= 1e-13
            for j in range(n_odd):
                P = Y[:, 2 * j:2 * j + 2]
                SP = S @ P
                assert np.linalg.norm(SP - P @ (P.T @ SP)) <= 1e-13 * theta[0]

    def test_returns_only_the_pairs_asked_for(self, rng):
        S = bipartite_skew(8, 8, np.linspace(2.0, 1.0, 8), rng)
        theta, Y = _ritz_pairs(S, 1)
        assert theta.shape == (8,) and Y.shape == (16, 2)
        assert np.array_equal(Y[1::2, 0], np.zeros(8)) and np.array_equal(Y[0::2, 1], np.zeros(8))


def _random_pair(n, rng, sigma1=1.0, sigma3=float("nan")):
    Q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    return SpectralPair(u1=Q[:, 0], u2=Q[:, 1], sigma1=sigma1, sigma3=sigma3)


class TestOrthonormalComplement:
    def test_standard_basis(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        basis = SpectralPair(u1=e1, u2=e2, sigma1=1.0)
        out = orthonormal_complement_in_span(e1, basis)
        assert np.allclose(np.abs(out), e2, atol=1e-12)
        mix = (e1 + e2) / np.sqrt(2.0)
        out = orthonormal_complement_in_span(mix, basis)
        assert np.allclose(np.abs(out), np.abs((e1 - e2) / np.sqrt(2.0)), atol=1e-12)

    def test_properties_random_basis(self, rng):
        for _ in range(10):
            basis = _random_pair(10, rng, sigma1=3.0)
            U = basis.basis
            u_bar = U @ rng.standard_normal(2)
            out = orthonormal_complement_in_span(u_bar, basis)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)
            assert abs(out @ u_bar) <= 1e-10
            assert np.linalg.norm(out - U @ (U.T @ out)) <= 1e-10

    def test_matches_two_step_projection_oracle(self, rng):
        # The old pipeline step: project the unit reference with the dense
        # projector U U^T, then take the in-span unit vector orthogonal to it.
        degrees = rng.integers(1, 50, size=30).astype(float)
        references = [np.ones(30), 1.0 / np.sqrt(degrees)]
        references += [rng.standard_normal(30) * 10.0 ** k for k in (-3, 0, 3)]
        for v in references:
            basis = _random_pair(30, rng)
            U = basis.basis
            u_bar = U @ U.T @ (v / np.linalg.norm(v))
            a, b = U.T @ u_bar
            expected = (-b * basis.u1 + a * basis.u2) / np.linalg.norm(u_bar)
            out = orthonormal_complement_in_span(v, basis)
            assert np.abs(out - expected).max() <= 1e-12

    def test_zero_projection(self, rng):
        basis = _random_pair(7, rng)
        with pytest.raises(ZeroProjection):
            orthonormal_complement_in_span(np.zeros(7), basis)
        U = basis.basis
        v = rng.standard_normal(7)
        v -= U @ (U.T @ v)
        with pytest.raises(ZeroProjection):
            orthonormal_complement_in_span(1e6 * v, basis)
        # Just above the threshold relative to ||v||, the step succeeds.
        w = v / np.linalg.norm(v) + 1e-10 * basis.u1
        assert abs(orthonormal_complement_in_span(1e6 * w, basis) @ basis.u2) == pytest.approx(1.0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            orthonormal_complement_in_span(np.ones(6), _random_pair(5, rng))

    def test_sigma2_is_sigma1_and_sigma3_is_checked(self, rng):
        pair = _random_pair(6, rng, sigma1=2.5, sigma3=2.5)
        assert pair.sigma2 == pair.sigma1 == 2.5
        assert "sigma2" not in {f.name for f in dataclasses.fields(SpectralPair)}
        with pytest.raises(InvalidParam):
            _random_pair(6, rng, sigma1=2.5, sigma3=2.6)
        with pytest.raises(InvalidParam):
            _random_pair(6, rng, sigma1=2.5, sigma3=-1.0)


def test_component_labels():
    H = SkewSparseMatrix(5, np.array([0, 2]), np.array([1, 3]), np.ones(2))
    assert list(component_labels(H)) == [0, 0, 1, 1, 2]
    assert not H.is_connected
    H = SkewSparseMatrix(2, np.array([0]), np.array([1]), np.ones(1))
    assert list(component_labels(H)) == [0, 0]
    assert H.is_connected


def _graph(n, i, j):
    """Matrix with one unit entry per edge (i[k], j[k]), either orientation, repeats folded."""
    return SkewSparseMatrix.from_pairs(n, i, j, np.ones(len(i)))


class TestComponentLabelsOracle:
    """Labels equal scipy's connected_components, which numbers by smallest node too."""

    @staticmethod
    def check(H):
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        graph = coo_matrix((np.ones(H.num_entries), (H.rows, H.cols)), shape=(H.n, H.n))
        count, expected = connected_components(graph, directed=False)
        assert np.array_equal(component_labels(H), expected)
        assert H.is_connected == (count == 1)

    def test_path_and_shuffled_path(self, rng):
        n = 500
        self.check(_graph(n, np.arange(n - 1), np.arange(1, n)))
        perm = rng.permutation(n)
        self.check(_graph(n, perm[:-1], perm[1:]))

    def test_star(self, rng):
        for center in (0, 7, 99):
            leaves = np.delete(np.arange(100), center)
            self.check(_graph(100, np.full(99, center), rng.permutation(leaves)))

    def test_isolated_nodes_and_empty(self):
        self.check(_graph(6, [4, 1], [1, 2]))
        for n in (1, 2, 9):
            self.check(_graph(n, [], []))

    def test_complete_graph(self):
        n = 60
        i, j = np.triu_indices(n, 1)
        self.check(_graph(n, i, j))

    def test_star_on_last_node_and_reversed_path(self):
        n = 300
        self.check(_graph(n, np.full(n - 1, n - 1), np.arange(n - 1)))
        path = SkewSparseMatrix(n, np.arange(n - 2, -1, -1), np.arange(n - 1, 0, -1),
                                np.ones(n - 1))  # entries listed from the far end
        self.check(path)

    def test_many_isolated_nodes(self, rng):
        n = 1000
        touched = rng.choice(n, 40, replace=False)
        self.check(_graph(n, touched[:-1], touched[1:]))
        self.check(_graph(n, touched[:20], touched[20:]))

    def test_two_equal_components(self, rng):
        half = 150
        perm = rng.permutation(2 * half)  # a path through each half of the nodes
        i = np.concatenate([perm[:half - 1], perm[half:-1]])
        j = np.concatenate([perm[1:half], perm[half + 1:]])
        self.check(_graph(2 * half, i, j))

    def test_random_sparse(self, rng):
        for n, m in ((50, 20), (200, 150), (1000, 600), (1000, 3000)):
            i, j = rng.integers(0, n, m), rng.integers(0, n, m)
            self.check(_graph(n, i[i != j], j[i != j]))


class TestLayoutMethods:
    """offsets, node_sums and restrict against a dense oracle built by to_dense()."""

    def test_node_sums_of_values_are_row_sums(self, rng):
        for _ in range(10):
            H = random_sparse(15, 0.4, rng)
            assert np.allclose(H.node_sums(H.values), H.to_dense().sum(axis=1), atol=1e-12)

    def test_node_sums_of_offsets_is_laplacian(self, rng):
        for _ in range(10):
            H = random_sparse(15, 0.4, rng)
            A = (H.to_dense() != 0).astype(float)
            x = rng.standard_normal(15)
            assert np.allclose(H.node_sums(H.offsets(x)), (np.diag(A.sum(axis=1)) - A) @ x,
                               atol=1e-12)

    def test_restrict(self, rng):
        for _ in range(10):
            H = random_sparse(15, 0.4, rng)
            keep = rng.random(15) < 0.6
            keep[3] = True
            sub = H.restrict(keep)
            assert sub.n == keep.sum()
            assert np.array_equal(sub.to_dense(), H.to_dense()[keep][:, keep])

    def test_restrict_keeps_entry_order(self):
        H = SkewSparseMatrix(4, np.array([2, 0, 1]), np.array([3, 3, 2]), np.array([1.0, 2.0, 3.0]))
        sub = H.restrict(np.array([False, True, True, True]))
        assert list(sub.rows) == [1, 0] and list(sub.cols) == [2, 1]
        assert list(sub.values) == [1.0, 3.0]

    def test_length_checks(self):
        H = SkewSparseMatrix(3, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            H.offsets(np.ones(4))
        with pytest.raises(DimensionMismatch):
            H.restrict(np.ones(2, dtype=bool))

    def test_from_pairs_matches_dict_fold(self, rng):
        for n, m in ((5, 40), (30, 200), (300, 1000)):
            i, j = rng.integers(0, n, m), rng.integers(0, n, m)
            i, j = i[i != j], j[i != j]
            v = rng.standard_normal(i.size) * 10.0 ** rng.integers(-8, 9, i.size)
            totals = {}
            for a, b, value in zip(i.tolist(), j.tolist(), v.tolist()):
                key, signed = ((a, b), value) if a < b else ((b, a), -value)
                totals[key] = totals.get(key, 0.0) + signed
            keys = sorted(totals)
            H = SkewSparseMatrix.from_pairs(n, i, j, v)
            assert H.n == n
            assert H.rows.tolist() == [k[0] for k in keys]
            assert H.cols.tolist() == [k[1] for k in keys]
            assert H.values.tobytes() == np.array([totals[k] for k in keys]).tobytes()

    def test_from_pairs_rejects_bad_pairs(self):
        for i, j in ((0, 3), (0, 5), (-1, 2), (1, 1)):  # (0, 5) would encode as (1, 2)
            with pytest.raises(InvalidParam):
                SkewSparseMatrix.from_pairs(3, [i], [j], [1.0])
