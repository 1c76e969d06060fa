from __future__ import annotations

import math

import numpy as np
import pytest

from svdrank import theory
from svdrank.algorithms import svd_nrs, svd_rs
from svdrank.errors import DegenerateScores, InvalidParam, ZeroGap
from svdrank.linalg import top2_svd
from svdrank.model import ScoreVector, generate_scores
from svdrank.theory import (
    BoundParams,
    ModelStats,
    coherence,
    delta_spectral,
    evaluate_all_bounds,
    expected_abs_degrees,
    ideal_scale_scores,
    l2_bound_svdnrs,
    l2_bound_svdrs,
    l2_precondition_holds,
    linf_C_svdrs,
    nrs_preconditions_hold,
    nrs_stats,
    pair_abs_sums,
    rank_displacement_bound,
    score_bounds_svdrs,
    score_l2_bound_svdnrs,
    u2_true,
    u2_true_nrs,
)

from matrix_helpers import noiseless_matrix

PARAMS = BoundParams(epsilon=0.5)


def stats_for(n, p, eta, kind="linear", seed=0):
    return ModelStats.from_scores(generate_scores(kind, n, seed=seed), p, eta)


class TestDeltaSpectral:
    def test_hand_value(self):
        stats = ModelStats(n=100, p=1.0, eta=1.0, M=1.0, alpha=0.5, dev_norm=1.0, rho=0.0)
        expected = 8.0 * math.sqrt(500.0 / 3.0) * 2.5
        assert delta_spectral(stats, PARAMS) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(258.199, abs=1e-3)

    def test_p_zero(self):
        stats = ModelStats(n=100, p=0.0, eta=1.0, M=1.0, alpha=0.5, dev_norm=1.0, rho=0.0)
        assert delta_spectral(stats, PARAMS) == 0.0


class TestL2Bound:
    def test_boundary_consistency(self):
        # exactly at the hypothesis boundary the bound equals 120/24 = 5
        M, eta, p = 3.0, 0.8, 0.4
        threshold = (24.0 * M / eta) * math.sqrt(5.0 / (3.0 * p)) * 2.5
        stats = ModelStats(n=100, p=p, eta=eta, M=M, alpha=1.5,
                           dev_norm=threshold, rho=0.1)
        assert l2_precondition_holds(stats, PARAMS)
        assert l2_bound_svdrs(stats, PARAMS) == pytest.approx(5.0)

    def test_informative_regime_exists(self):
        # for linear scores the bound drops below 1 once n is large enough
        n = 2_000_000
        r = np.arange(1, n + 1, dtype=np.float64)
        dev = float(np.linalg.norm(r - r.mean()))
        stats = ModelStats(n=n, p=1.0, eta=1.0, M=float(n), alpha=(n + 1) / 2,
                           dev_norm=dev, rho=1.0)
        assert l2_precondition_holds(stats, PARAMS)
        assert l2_bound_svdrs(stats, PARAMS) < 1.0

    def test_violated_precondition_flagged(self):
        stats = stats_for(500, 0.25, 0.8)
        assert not l2_precondition_holds(stats, PARAMS)
        assert l2_bound_svdrs(stats, PARAMS) > 0

    @pytest.mark.parametrize("p, eta", [(0.5, 0.0), (0.0, 0.5)])
    def test_needs_positive_eta_and_p(self, p, eta):
        stats = ModelStats(n=16, p=p, eta=eta, M=4.0, alpha=2.0, dev_norm=10.0, rho=1.0)
        for evaluate in (l2_bound_svdrs, score_bounds_svdrs, linf_C_svdrs):
            with pytest.raises(InvalidParam):
                evaluate(stats, PARAMS)


class TestLinfBound:
    def test_nonnegative_and_monotone_in_p(self):
        values = [linf_C_svdrs(stats_for(1000, p, 0.9), PARAMS)[1]
                  for p in np.arange(0.1, 1.01, 0.1)]
        assert all(v > 0 for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_matches_independent_arithmetic(self):
        n, p, eta = 1000, 0.5, 0.9
        stats = stats_for(n, p, eta)
        c_val, bound = linf_C_svdrs(stats, PARAMS)
        M, dev, alpha = stats.M, stats.dev_norm, stats.alpha
        logn = math.log(n)
        xi = theory.XI
        term = ((M * math.sqrt(logn) / (eta * math.sqrt(p) * dev)
                 + M ** 2 * logn ** (2 * xi) / (eta ** 2 * p * dev ** 2))
                * (1 / math.sqrt(n) + (M - alpha) / dev)
                + M ** 3 / (eta ** 3 * p ** 1.5 * dev ** 3))
        assert c_val == pytest.approx(term, rel=1e-12)
        assert bound == pytest.approx(4 * (2 + math.sqrt(2)) * term
                                      + 4 * math.sqrt(n) * term ** 2, rel=1e-12)
        assert math.isfinite(bound) and bound > 0


class TestRankDisplacementBound:
    def test_zero_upsilon(self):
        assert rank_displacement_bound(stats_for(100, 0.5, 0.9), 0.0) == 0.0

    def test_unit_gap(self):
        stats = stats_for(100, 0.5, 0.9)  # linear scores: rho = 1
        assert stats.rho == 1.0
        assert rank_displacement_bound(stats, 2.0) == pytest.approx(
            8.0 * stats.dev_norm)

    def test_tied_scores(self):
        stats = ModelStats(n=4, p=0.5, eta=0.9, M=1.0, alpha=0.5, dev_norm=1.0, rho=0.0)
        with pytest.raises(ZeroGap):
            rank_displacement_bound(stats, 1.0)


class TestScoreBounds:
    def test_arithmetic(self):
        stats = stats_for(400, 0.5, 0.9)
        l2, linf = score_bounds_svdrs(stats, PARAMS)
        M, eta, p, dev = stats.M, stats.eta, stats.p, stats.dev_norm
        expected_l2 = ((8 * M / eta) * math.sqrt(5 / (3 * p)) * 2.5
                       + math.sqrt(120 * M * 2.5 * dev / (eta * math.sqrt(p)))
                       * (5 / 3) ** 0.25)
        assert l2 == pytest.approx(expected_l2, rel=1e-12)
        assert linf > 0

    def test_monotone_in_p(self):
        values = [score_bounds_svdrs(stats_for(300, p, 0.8), PARAMS)[0]
                  for p in (0.1, 0.25, 0.5, 1.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_hypothesis_fails_flagged(self):
        stats = stats_for(500, 0.25, 0.8)
        assert not l2_precondition_holds(stats, PARAMS)
        assert all(bound > 0 for bound in score_bounds_svdrs(stats, PARAMS))


class TestPairAbsSums:
    def test_linear_closed_form(self):
        n = 57
        S = pair_abs_sums(np.arange(1, n + 1, dtype=float))
        i = np.arange(1, n + 1)
        assert np.allclose(S, i ** 2 - i * (n + 1) + (n ** 2 + n) / 2)

    def test_matches_bruteforce(self, rng):
        v = rng.standard_normal(40)
        brute = np.abs(v[:, None] - v[None, :]).sum(axis=1)
        assert np.allclose(pair_abs_sums(v), brute, atol=1e-9)


class TestNrsStats:
    def test_hand_three_nodes(self):
        scores = ScoreVector(np.array([1.0, 2.0, 3.0]))
        eta, p = 0.8, 0.5
        stats = nrs_stats(scores, p, eta, PARAMS)
        # S = (3, 2, 3), M = 3
        assert stats.lambda_max == pytest.approx(eta * 3 + 0.2 * 1.5)
        assert stats.lambda_min == pytest.approx(eta * 2 + 0.2 * 1.5)
        assert stats.A == pytest.approx(eta * 9 + 0.2 * 1.5)
        dexp = p * (eta * np.array([3.0, 2.0, 3.0]) + 0.2 * 1.5)
        weights = 1.0 / dexp
        alpha = float((scores.values * weights).sum() / weights.sum())
        assert stats.alpha == pytest.approx(alpha)
        dev = np.linalg.norm(scores.values - alpha)
        assert stats.sigma_min == pytest.approx(eta * dev * math.sqrt(3) / stats.lambda_max)
        assert stats.sigma_max == pytest.approx(eta * dev * math.sqrt(3) / stats.lambda_min)

    def test_delta_tilde_arithmetic(self):
        scores = generate_scores("linear", 50)
        p, eta = 0.6, 0.9
        stats = nrs_stats(scores, p, eta, PARAMS)
        c1 = 4.0 * stats.A ** 0.25
        plm = p * stats.lambda_min
        quarter = (50 * p * math.log(50)) ** 0.25
        expected = (16 * stats.M * math.sqrt(5 / 3 * p * 50) * 2.5 / plm
                    + c1 * quarter * stats.sigma_max / plm ** 1.5
                    * (c1 * quarter / math.sqrt(plm) + 2 * math.sqrt(2)))
        assert stats.delta_tilde == pytest.approx(expected, rel=1e-12)

    def test_constant_scores(self):
        with pytest.raises(DegenerateScores):
            nrs_stats(ScoreVector(np.full(10, 3.0)), 0.5, 0.9, PARAMS)

    def test_preconditions_hold_in_large_clean_regime(self):
        scores = generate_scores("linear", 2_000_000)
        stats = nrs_stats(scores, 1.0, 1.0, PARAMS)
        assert nrs_preconditions_hold(stats)
        assert l2_bound_svdnrs(stats) == pytest.approx(15 * stats.delta_tilde / stats.sigma_min)
        assert score_l2_bound_svdnrs(stats) > 0

    def test_preconditions_fail_small_n(self):
        stats = nrs_stats(generate_scores("linear", 100), 0.5, 0.9, PARAMS)
        assert not nrs_preconditions_hold(stats)
        assert l2_bound_svdnrs(stats) > 0


class TestIdealScaleScores:
    def test_noiseless_matches_centered_truth(self):
        r = np.array([4.0, 1.0, 3.0, 2.0, 5.0])
        res = svd_rs(noiseless_matrix(r))
        r_tilde = ideal_scale_scores(res.direction, res.spectral.sigma1, 1.0, 1.0)
        truth = r - r.mean()
        err = min(np.linalg.norm(r_tilde - truth), np.linalg.norm(r_tilde + truth))
        assert err < 1e-8 * np.linalg.norm(truth)

    def test_zero_spectral_estimate(self):
        out = ideal_scale_scores(np.zeros(6), 0.0, 0.5, 0.5)
        assert np.array_equal(out, np.zeros(6))

    def test_nrs_variant_noiseless(self):
        r = np.array([2.0, 6.0, 1.0, 4.0])
        H = noiseless_matrix(r)
        res = svd_nrs(H)
        dbar = H.abs_row_sums()
        r_tilde = ideal_scale_scores(res.direction, res.spectral.sigma1, 1.0, 1.0,
                                     dbar=dbar)
        truth = r - r.mean()
        err = min(np.linalg.norm(r_tilde - truth), np.linalg.norm(r_tilde + truth))
        assert err < 1e-7 * np.linalg.norm(truth)


class TestGroundTruthDirections:
    def test_u2_true_unit(self):
        scores = generate_scores("uniform01", 50, seed=3)
        u = u2_true(scores)
        assert np.linalg.norm(u) == pytest.approx(1.0)

    def test_noiseless_sigma_identity(self):
        scores = generate_scores("uniform01", 80, seed=4)
        pair = top2_svd(noiseless_matrix(scores.values))
        dev = np.linalg.norm(scores.values - scores.values.mean())
        assert pair.sigma1 == pytest.approx(dev * math.sqrt(80), rel=1e-8)

    def test_nrs_direction_matches_pipeline_noiseless(self):
        scores = generate_scores("uniform01", 40, seed=5)
        H = noiseless_matrix(scores.values)
        res = svd_nrs(H)
        target = u2_true_nrs(scores, 1.0, 1.0)
        err = min(np.linalg.norm(res.direction - target),
                  np.linalg.norm(res.direction + target))
        assert err < 1e-8

    def test_expected_degrees_match_actual_noiseless(self):
        scores = generate_scores("linear", 30)
        H = noiseless_matrix(scores.values)
        assert np.allclose(expected_abs_degrees(scores, 1.0, 1.0), H.abs_row_sums())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("values, p, eta", [
        (np.full(5, 2.0), 0.5, 1.0),
        (np.zeros(5), 0.5, 1.0),
        (np.zeros(5), 0.5, 0.4),
        (np.arange(5.0), 0.0, 1.0),
    ], ids=["constant", "zeros", "zeros_noisy", "p_zero"])
    def test_nrs_direction_raises_when_expected_degrees_vanish(self, values, p, eta):
        # every expected degree is zero: no 1/d weights, and no warning first
        with pytest.raises(DegenerateScores, match="expected degrees vanish"):
            u2_true_nrs(ScoreVector(values), p, eta)

    def test_every_statistic_shares_the_all_equal_test(self):
        # deviation 1.2e-15 <= 1e-12 (max + 1) sqrt(3): equal up to roundoff
        scores = ScoreVector(np.array([1.0, 1.0 + 2e-15, 1.0]))
        for statistic in (lambda: ModelStats.from_scores(scores, 0.5, 1.0),
                          lambda: nrs_stats(scores, 0.5, 1.0, PARAMS),
                          lambda: u2_true(scores),
                          lambda: u2_true_nrs(scores, 0.5, 1.0),
                          lambda: coherence(scores)):
            with pytest.raises(DegenerateScores, match="all scores are equal"):
                statistic()


class TestBoundReport:
    def test_report_structure(self):
        report = evaluate_all_bounds(generate_scores("linear", 200), 0.5, 0.9, PARAMS)
        assert set(report.values) == set(report.preconditions_ok)
        assert all(v >= 0 for v in report.values.values())

    def test_monotone_decreasing_in_eta(self):
        # more inliers -> smaller direction bound, p and scores held fixed
        scores = generate_scores("linear", 400)
        vals = [evaluate_all_bounds(scores, 0.5, eta, PARAMS).values["direction_l2_sq"]
                for eta in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_bound_params_validation():
    with pytest.raises(InvalidParam):
        BoundParams(epsilon=0.6)
