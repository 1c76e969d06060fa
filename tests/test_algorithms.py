from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from svdrank.algorithms import (
    _scale_and_package,
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
from svdrank.baselines import least_squares_rank, rowsum_rank
from svdrank.harness import ALGORITHMS, _run_algorithm
from svdrank.linalg import SkewSparseMatrix
from svdrank.metrics import count_upsets, kendall_distance
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


def _composed_sign_and_scale(H, s):
    """beta and tau by the public functions, composed as separate passes over the offsets."""
    beta = -1 if count_upsets(H, -s) < count_upsets(H, s) else 1
    try:
        tau = recover_scale_median(compute_ratio_entries(H, s))
    except EmptyRatios:
        tau = math.nan
    return beta, tau


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestOneOffsetsPass:
    """Sign and scale from one offsets pass equal the composition of the public steps."""

    @staticmethod
    def instances(rng):
        """Small seeded (H, s, scale_from) triples covering the edge cases of both steps."""
        for trial in range(12):
            n = int(rng.integers(4, 40))
            H = build_H(generate_ero(generate_scores("uniform01", n, seed=trial),
                                     EROParams(n=n, p=0.6, eta=0.5, seed=trial)))
            s = rng.standard_normal(n)
            yield H, s, None
            zeroed = H.values.copy()
            zeroed[rng.random(zeroed.size) < 0.5] = 0.0  # zero measurements
            yield SkewSparseMatrix(n, H.rows, H.cols, zeroed), s, None
            yield H, np.round(s), None  # tied scores: zero offsets
            yield H, rng.integers(0, 3, n).astype(float), None
            yield H, np.zeros(n), None  # no ratio survives: NaN tau
            even = H if H.num_entries % 2 == 0 else SkewSparseMatrix(
                n, H.rows[1:], H.cols[1:], H.values[1:])
            yield even, s, None  # even count of ratios: the middle two are averaged
            i, j = rng.integers(0, n, (2, 2 * n))
            other = SkewSparseMatrix.from_pairs(n, i[i != j], j[i != j],
                                                rng.standard_normal(int((i != j).sum())))
            yield H, s, other  # sign and scale from a different edge set

    def test_package_matches_composition(self, rng):
        seen_nan = seen_even = 0
        for H, s, scale_from in self.instances(rng):
            source = H if scale_from is None else scale_from
            beta, tau = _composed_sign_and_scale(source, s)
            res = _scale_and_package(H, s, s, None, "test", scale_from)
            assert res.beta == beta and _same(res.tau, tau)
            scores = center((tau if math.isfinite(tau) else 1.0) * s)
            assert np.array_equal(res.score_estimate, scores)
            seen_nan += math.isnan(tau)
            seen_even += source.num_entries % 2 == 0
        assert seen_nan >= 12 and seen_even >= 12

    def test_public_steps_match_numpy(self, rng):
        for H, s, _ in self.instances(rng):
            offsets = s[H.rows] - s[H.cols]
            keep = np.abs(offsets) > 1e-12 * (s.max() - s.min())
            if not keep.any():
                with pytest.raises(EmptyRatios):
                    compute_ratio_entries(H, s)
                continue
            ratios = compute_ratio_entries(H, s)
            assert np.array_equal(ratios, H.values[keep] / offsets[keep])
            assert recover_scale_median(ratios) == float(np.median(ratios))

    def test_median_propagates_nan(self):
        assert math.isnan(recover_scale_median(np.array([1.0, np.nan, 2.0, 3.0])))

    def test_pipelines_with_scale_from(self):
        scores = generate_scores("uniform01", 50, seed=8)
        H = build_H(generate_ero(scores, EROParams(n=50, p=0.5, eta=0.6, seed=8)))
        observed = build_H(generate_ero(scores, EROParams(n=50, p=0.2, eta=0.6, seed=9)))
        for scale_from in (None, observed):
            source = H if scale_from is None else scale_from
            res = svd_rs(H, scale_from=scale_from)
            assert (res.beta, res.tau) == _composed_sign_and_scale(source, res.direction)
            res = svd_nrs(H, scale_from=scale_from)
            s = np.sqrt(H.abs_row_sums()) * res.direction
            assert (res.beta, res.tau) == _composed_sign_and_scale(source, s)
        for res in (rowsum_rank(H), least_squares_rank(H)):
            assert _same(res.tau, _composed_sign_and_scale(H, res.score_estimate)[1])


class TestScaleOfInput:
    """A noiseless instance ranks exactly however far its values are scaled."""

    @pytest.mark.parametrize("k", [-300, -180, -170, -165, -160, 0, 160, 200, 300])
    def test_scaled_noiseless_complete_graph(self, k):
        r = generate_scores("uniform01", 30, seed=1).values
        H = noiseless_matrix(r * 10.0 ** k)
        truth = ranking_from_scores(r)
        for algorithm in (svd_rs, svd_nrs, rowsum_rank, least_squares_rank):
            res = algorithm(H)
            assert kendall_distance(truth, res.permutation) == 0
            if res.spectral is not None:
                assert res.spectral.residual <= 1e-10
            # row sums of exact offsets are n (r - mean r)
            per_item = H.n if algorithm is rowsum_rank else 1
            assert np.allclose(res.score_estimate / (per_item * 10.0 ** k), r - r.mean(),
                               rtol=0, atol=1e-8)


def _noisy_complete_graph() -> SkewSparseMatrix:
    """n=200 complete graph, 30% U[-1, 1] outliers; its magnitudes sum to about 7502 < 2^13."""
    scores = generate_scores("uniform01", 200, seed=1)
    return generate_ero(scores, EROParams(n=200, p=1.0, eta=0.7, seed=2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestValueRangeLimit:
    """Edge lists whose magnitudes sum to just under 2^1021 rank as they do at scale 1.

    Each is scaled by a power of two, which is exact, so every algorithm
    must give the permutation of the unscaled instance with finite scores,
    tau and sigma1.
    """

    @pytest.mark.parametrize("base, k", [
        # a path 0-1-2-3 whose magnitudes sum to exactly 2^1021 at k = 1021
        (SkewSparseMatrix(4, np.array([0, 1, 2]), np.array([1, 2, 3]),
                          np.array([0.5, -0.375, 0.125])), 1021),
        # the smallest kept |offset| of svd_rs is 8.9e-7 here, so some
        # ratios overflow to +-inf past the median
        (_noisy_complete_graph(), 1021 - 13),
    ], ids=["path", "noisy_complete"])
    def test_ranks_like_scale_one(self, base, k):
        H = SkewSparseMatrix(base.n, base.rows, base.cols, np.ldexp(base.values, k))
        assert np.abs(H.values).sum() > 2.0 ** 1020
        for name in ALGORITHMS:
            want = _run_algorithm(name, base, 0, None)
            got = _run_algorithm(name, H, 0, None)
            assert np.array_equal(got.permutation, want.permutation), name
            assert np.isfinite(got.score_estimate).all() and math.isfinite(got.tau), name
            if got.spectral is not None:
                assert math.isfinite(got.spectral.sigma1), name

    @pytest.mark.parametrize("k", [0, -900])
    def test_scores_keep_the_sign_of_tau_past_the_float_range(self, k):
        # At k = 0, svd_rs's tau is -inf and svd_nrs's tau is finite but
        # tau * s overflows; both must still rank as at k = -900.
        values = np.array([-1.367e301, 2.244e307, 1.263e304, -1.218e304, -6.153e303, 5.421e301])
        H = SkewSparseMatrix(5, np.array([0, 0, 1, 1, 2, 3]), np.array([1, 4, 2, 3, 3, 4]),
                             np.ldexp(values, k))
        for algorithm in (svd_rs, svd_nrs):
            res = algorithm(H)
            assert res.permutation.tolist() == [0, 3, 1, 2, 4], algorithm.__name__
            assert np.isfinite(res.score_estimate).all(), algorithm.__name__


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

    @pytest.mark.parametrize("p", [1.0, 0.05])
    def test_pair_matches_dense_svd_of_normalized_matrix(self, p):
        scores = generate_scores("uniform01", 300, seed=6)
        H = build_H(generate_ero(scores, EROParams(n=300, p=p, eta=0.7, seed=6)))
        d = 1.0 / np.sqrt(H.abs_row_sums())
        U, S, _ = np.linalg.svd(d[:, None] * H.to_dense() * d)
        pair = svd_nrs(H).spectral
        assert (vars(H).get("_dense") is not None) == (p == 1.0)  # H's own products
        assert np.linalg.norm(U[:, :2] - pair.basis @ (pair.basis.T @ U[:, :2]), 2) < 1e-8
        assert pair.sigma1 == pytest.approx(S[0], rel=1e-10)
        assert pair.sigma3 <= S[2] * (1 + 1e-12)

    def test_no_second_dense_array(self):
        # At the dense threshold 3 m = n^2 the n x n array takes as many bytes as
        # the edge list's three arrays; svd_nrs multiplies with H's own array and
        # allocates less than one more.
        rng = np.random.default_rng(12)
        n = 600
        iu, ju = np.triu_indices(n, 1)
        pick = np.sort(rng.choice(iu.size, -(-n * n // 3), replace=False))
        H = SkewSparseMatrix(n, iu[pick], ju[pick], rng.standard_normal(pick.size))
        svd_rs(H)  # builds H's dense array and its connectivity
        assert vars(H).get("_dense") is not None
        tracemalloc.start()
        try:
            svd_nrs(H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n

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
