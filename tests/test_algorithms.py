from __future__ import annotations

import numpy as np
import pytest

from svdrank.algorithms import (
    center,
    compute_ratio_entries,
    ranking_from_scores,
    reconcile_sign,
    recover_scale_ls,
    recover_scale_median,
    svd_nrs,
    svd_rs,
)
from svdrank.errors import (
    EmptyRatios,
    GraphDisconnected,
    IsolatedNode,
    ZeroDenominator,
)
from svdrank.harness import ALGORITHMS, _run_algorithm
from svdrank.linalg import SkewSparseMatrix
from svdrank.metrics import kendall_distance
from svdrank.model import EROParams, build_H, generate_ero, generate_scores

from matrix_helpers import noiseless_matrix


class TestCenter:
    def test_hand(self):
        assert np.allclose(center(np.array([1.0, 2.0, 3.0])), [-1.0, 0.0, 1.0])

    def test_zero(self):
        assert np.allclose(center(np.zeros(4)), np.zeros(4))

    def test_mean_killed(self, rng):
        v = rng.standard_normal(33)
        assert abs(center(v).mean()) < 1e-12


class TestRatiosAndScale:
    def test_proportional_scores_give_constant_ratio(self):
        r = np.array([1.0, 3.0, 2.0, 5.0])
        H = noiseless_matrix(r)
        s = 0.25 * (r - r.mean())
        ratios = compute_ratio_entries(H, s)
        assert np.allclose(ratios, 4.0)

    def test_constant_scores_empty(self):
        H = noiseless_matrix(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(EmptyRatios):
            compute_ratio_entries(H, np.ones(3))

    def test_matches_per_edge_division(self):
        H = SkewSparseMatrix(3, np.array([0, 1]), np.array([1, 2]),
                             np.array([4.0, -2.0]))
        s = np.array([2.0, 0.0, 1.0])
        ratios = compute_ratio_entries(H, s)
        assert np.allclose(sorted(ratios), sorted([4.0 / 2.0, -2.0 / -1.0]))

    def test_median_gross_outliers(self):
        assert recover_scale_median(np.array([1.0, 1.0, 1.0, 100.0, -50.0])) == 1.0

    def test_median_negative_scale(self):
        assert recover_scale_median(np.array([-2.0, -2.0, -2.0])) == -2.0

    def test_median_even_convention(self):
        assert recover_scale_median(np.array([1.0, 3.0])) == 2.0

    def test_median_empty(self):
        with pytest.raises(EmptyRatios):
            recover_scale_median(np.array([]))

    def test_ls_direct_formula(self):
        H = SkewSparseMatrix(3, np.array([0, 1]), np.array([1, 2]),
                             np.array([4.0, 6.0]))
        s = np.array([1.5, 0.5, -0.5])  # offsets 1.0 and 1.0 sum to 2; values sum to 10
        assert recover_scale_ls(H, s) == pytest.approx(5.0)

    def test_ls_noiseless_inverse_scale(self):
        r = np.array([2.0, 4.0, 7.0])
        H = noiseless_matrix(r)
        s = 0.5 * (r - r.mean())
        assert recover_scale_ls(H, s) == pytest.approx(2.0)

    def test_ls_zero_denominator(self):
        H = SkewSparseMatrix(3, np.array([0, 1]), np.array([1, 2]),
                             np.array([1.0, 1.0]))
        s = np.array([1.0, 0.0, 1.0])  # offsets +1 and -1 cancel
        with pytest.raises(ZeroDenominator):
            recover_scale_ls(H, s)


class TestReconcileSign:
    def test_aligned(self):
        r = np.array([1.0, 2.0, 3.0])
        H = noiseless_matrix(r)
        assert reconcile_sign(r - r.mean(), H) == 1

    def test_anti_aligned(self):
        r = np.array([1.0, 2.0, 3.0])
        H = noiseless_matrix(r)
        assert reconcile_sign(-(r - r.mean()), H) == -1

    def test_tie_is_positive(self):
        H = SkewSparseMatrix(3, np.array([], dtype=int), np.array([], dtype=int),
                             np.array([]))
        assert reconcile_sign(np.zeros(3), H) == 1


class TestSvdRs:
    def test_noiseless_complete(self):
        r = np.array([3.0, 1.0, 2.0])
        res = svd_rs(noiseless_matrix(r))
        assert list(res.permutation) == [0, 2, 1]
        assert np.allclose(res.score_estimate, r - r.mean(), atol=1e-8)
        assert abs(res.score_estimate.mean()) < 1e-10

    def test_two_nodes(self):
        H = SkewSparseMatrix(2, np.array([0]), np.array([1]), np.array([5.0]))
        res = svd_rs(H)
        assert np.allclose(res.score_estimate, [2.5, -2.5], atol=1e-10)

    def test_disconnected_raises(self):
        H = SkewSparseMatrix(4, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(GraphDisconnected):
            svd_rs(H)

    def test_scale_invariance_of_ranking(self, rng):
        scores = generate_scores("uniform01", 40, seed=2)
        mset = generate_ero(scores, EROParams(n=40, p=0.6, eta=0.8, seed=3))
        H = build_H(mset)
        res1 = svd_rs(H)
        res2 = svd_rs(SkewSparseMatrix(H.n, H.rows.copy(), H.cols.copy(), 3.7 * H.values))
        assert np.array_equal(res1.permutation, res2.permutation)

    def test_shift_invariance(self):
        r = np.array([1.0, 4.0, 2.0, 6.0])
        assert np.allclose(noiseless_matrix(r).to_dense(),
                           noiseless_matrix(r + 11.0).to_dense())

    def test_permutation_consistent_with_scores(self, rng):
        scores = generate_scores("uniform01", 30, seed=4)
        mset = generate_ero(scores, EROParams(n=30, p=0.5, eta=0.6, seed=5))
        res = svd_rs(build_H(mset))
        est = res.score_estimate[res.permutation]
        assert np.all(np.diff(est) <= 1e-12)

    def test_beats_random_and_obeys_l2_bound(self):
        # 100 independent draws; spectral ranking must beat a uniformly random
        # permutation nearly always, and the direction error must respect the
        # l2 guarantee whenever its hypothesis holds at these parameters.
        from svdrank.theory import (
            BoundParams,
            ModelStats,
            l2_bound_svdrs,
            l2_precondition_holds,
            u2_true,
        )

        n, p, eta = 500, 0.25, 0.9
        scores = generate_scores("linear", n)
        truth = ranking_from_scores(scores.values)
        target = u2_true(scores)
        stats = ModelStats.from_scores(scores, p, eta)
        params = BoundParams(epsilon=0.5)
        precondition = l2_precondition_holds(stats, params)
        bound = l2_bound_svdrs(stats, params)
        rng = np.random.default_rng(99)
        wins = 0
        for trial in range(100):
            mset = generate_ero(scores, EROParams(n=n, p=p, eta=eta, seed=7000 + trial))
            res = svd_rs(build_H(mset))
            ours = kendall_distance(truth, res.permutation)
            random_kd = kendall_distance(truth, rng.permutation(n))
            wins += ours < random_kd
            err = min(np.sum((res.direction - target) ** 2),
                      np.sum((res.direction + target) ** 2))
            if precondition:
                assert err <= bound
        assert wins >= 95

    def test_monotone_degradation_in_noise(self):
        # mean Kendall distance over 20 trials is nondecreasing along the
        # noise grid
        n, p = 500, 0.25
        scores = generate_scores("linear", n)
        truth = ranking_from_scores(scores.values)
        means = []
        for gi, gamma in enumerate(np.arange(0.0, 0.71, 0.1)):
            vals = []
            for trial in range(20):
                mset = generate_ero(scores, EROParams(n=n, p=p, eta=1.0 - gamma,
                                                      seed=100_000 + 971 * gi + trial))
                res = svd_rs(build_H(mset))
                vals.append(kendall_distance(truth, res.permutation))
            means.append(np.mean(vals))
        assert all(b >= a for a, b in zip(means, means[1:]))


class TestSvdNrs:
    def test_degree_diagonal(self):
        r = np.array([1.0, 2.0, 3.0])
        assert np.allclose(noiseless_matrix(r).abs_row_sums(), [3.0, 2.0, 3.0])

    def test_matches_svd_rs_noiseless(self):
        r = np.array([2.0, 5.0, 1.0, 4.0])
        H = noiseless_matrix(r)
        assert np.array_equal(svd_nrs(H).permutation, svd_rs(H).permutation)
        res = svd_nrs(H)
        assert np.allclose(res.score_estimate, r - r.mean(), atol=1e-7)

    def test_isolated_node(self):
        H = SkewSparseMatrix(3, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(IsolatedNode):
            svd_nrs(H)

    def test_degree_regular_matches_plain(self):
        scores = generate_scores("linear", 25)
        H = noiseless_matrix(scores.values)
        assert np.array_equal(svd_nrs(H).permutation, svd_rs(H).permutation)


def test_ranking_tie_break_is_stable():
    perm = ranking_from_scores(np.array([1.0, 2.0, 2.0, 0.0]))
    assert list(perm) == [1, 2, 0, 3]


@pytest.mark.parametrize("name", ALGORITHMS)
def test_permutation_is_read_only_sort_of_scores(name):
    scores = generate_scores("uniform01", 60, seed=3)
    H = build_H(generate_ero(scores, EROParams(n=60, p=0.5, eta=0.7, seed=4)))
    res = _run_algorithm(name, H, seed=0, scale_from=None)
    assert res.method == name
    assert np.array_equal(res.permutation, np.argsort(-res.score_estimate, kind="stable"))
    assert not res.permutation.flags.writeable
