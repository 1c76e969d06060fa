"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single CRITERION line (visible with ``pytest -s`` or in
the captured output), and the test outcome itself is the pass/fail signal
under ``pytest -v``. Heavy Monte-Carlo criteria share module-scoped
fixtures so the suite stays within its runtime budgets.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from svdrank.algorithms import (
    compute_ratio_entries,
    ranking_from_scores,
    recover_scale_ls,
    recover_scale_median,
    svd_nrs,
    svd_rs,
)
from svdrank.baselines import complete_matrix, least_squares_rank
from svdrank.harness import ExperimentConfig, run_sweep, write_csv
from svdrank.linalg import SkewSparseMatrix, top2_svd
from svdrank.metrics import (
    count_upsets,
    kendall_distance,
    max_displacement,
    weighted_upsets,
)
from svdrank.model import EROParams, build_H, generate_ero, generate_scores
from svdrank.theory import (
    BoundParams,
    ModelStats,
    delta_spectral,
    ideal_scale_scores,
    l2_bound_svdrs,
    l2_precondition_holds,
    score_bounds_svdrs,
    u2_true,
)

from matrix_helpers import make_skew_dense, noiseless_matrix

PARAMS = BoundParams(epsilon=0.5)


def report(criterion: str, detail: str) -> None:
    print(f"CRITERION {criterion}: PASS - {detail}")


def test_c01_noiseless_exactness():
    scores = generate_scores("uniform01", 200, seed=510)
    r = scores.values
    assert np.unique(r).size == r.size
    H = noiseless_matrix(r)
    truth_perm = ranking_from_scores(r)
    centered = r - r.mean()
    start = time.perf_counter()
    results = {"svd_rs": svd_rs(H), "svd_nrs": svd_nrs(H)}
    elapsed = time.perf_counter() - start
    for name, res in results.items():
        assert kendall_distance(truth_perm, res.permutation) == 0, name
        rel = np.linalg.norm(res.score_estimate - centered) / np.linalg.norm(centered)
        assert rel <= 1e-6, (name, rel)
    assert elapsed < 1.0
    report("1 noiseless exactness",
           f"both pipelines exact, runtime {elapsed * 1e3:.0f} ms")


def test_c02_singular_value_identity():
    for n in (10, 100):
        scores = generate_scores("linear", n)
        r = scores.values
        expected = np.linalg.norm(r - r.mean()) * np.sqrt(n)
        pair = top2_svd(noiseless_matrix(r))
        assert pair.sigma1 == pytest.approx(expected, rel=1e-8)
        assert pair.sigma2 == pytest.approx(expected, rel=1e-8)
    report("2 singular-value identity", "sigma1 = sigma2 = dev * sqrt(n) at n=10,100")


def test_c03_svd_oracle_equivalence():
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 21))
        dense = make_skew_dense(n, rng)
        H = SkewSparseMatrix.from_dense(dense)
        pair = top2_svd(H, tol=1e-12, max_iter=5000, seed=int(rng.integers(1 << 31)))
        U = np.linalg.svd(dense)[0][:, :2]
        span = pair.basis
        worst = max(worst, np.linalg.norm(U - span @ (span.T @ U), 2))
    assert worst < 1e-8
    report("3 oracle equivalence", f"worst principal-angle sine {worst:.2e} over 50 matrices")


def test_c04_spectral_norm_containment():
    n, p, eta = 200, 0.1, 0.8
    scores = generate_scores("linear", n)
    r = scores.values
    C = np.subtract.outer(r, r)
    bound = delta_spectral(ModelStats.from_scores(scores, p, eta), PARAMS)
    start = time.perf_counter()
    contained = 0
    for trial in range(100):
        mset = generate_ero(scores, EROParams(n=n, p=p, eta=eta, seed=62000 + trial))
        Z = build_H(mset).to_dense() - eta * p * C
        contained += np.linalg.svd(Z, compute_uv=False)[0] <= bound
    elapsed = time.perf_counter() - start
    assert contained >= 95
    assert elapsed < 30.0
    report("4 spectral-norm containment",
           f"{contained}/100 within the level, runtime {elapsed:.1f} s")


@pytest.fixture(scope="module")
def l2_regime_trials():
    """Per-p direction and known-scale score errors, 100 trials each.

    Note: at n=500 the l2 guarantee's hypothesis 'dev >= (24M/eta)
    sqrt(5/(3p)) (2+eps)' is numerically false (it needs n beyond about
    1e6 for linear scores), so the right-hand sides are evaluated
    unconditionally and the hypothesis flag is reported alongside.
    """
    n, eta = 500, 0.8
    scores = generate_scores("linear", n)
    target = u2_true(scores)
    centered = scores.values - scores.values.mean()
    data = {}
    for p in (0.1, 0.25, 0.5, 1.0):
        stats = ModelStats.from_scores(scores, p, eta)
        u2_bound = l2_bound_svdrs(stats, PARAMS)
        score_bound = score_bounds_svdrs(stats, PARAMS)[0]
        u2_errs, score_errs = [], []
        for trial in range(100):
            mset = generate_ero(scores, EROParams(n=n, p=p, eta=eta, seed=45000 + trial))
            res = svd_rs(build_H(mset))
            u2_errs.append(min(float(np.sum((res.direction - target) ** 2)),
                               float(np.sum((res.direction + target) ** 2))))
            r_tilde = ideal_scale_scores(res.direction, res.spectral.sigma1, eta, p)
            score_errs.append(min(float(np.linalg.norm(r_tilde - centered)),
                                  float(np.linalg.norm(r_tilde + centered))))
        data[p] = {"u2_errs": u2_errs, "u2_bound": u2_bound,
                   "score_errs": score_errs, "score_bound": score_bound,
                   "precondition": l2_precondition_holds(stats, PARAMS)}
    return data


def test_c05_l2_bound_containment(l2_regime_trials):
    start = time.perf_counter()
    means = []
    for p, cell in sorted(l2_regime_trials.items()):
        inside = sum(e <= cell["u2_bound"] for e in cell["u2_errs"])
        assert inside >= 95, (p, inside)
        means.append(np.mean(cell["u2_errs"]))
    assert all(b <= a for a, b in zip(means, means[1:])), means
    flags = {p: cell["precondition"] for p, cell in l2_regime_trials.items()}
    report("5 l2 containment",
           f"containment >= 95% at every p, mean error monotone in p "
           f"({', '.join(f'{m:.4f}' for m in means)}); hypothesis flags {flags} "
           f"(checked in {time.perf_counter() - start:.1f} s on shared trials)")


def test_c06_score_recovery_containment(l2_regime_trials):
    for p, cell in sorted(l2_regime_trials.items()):
        inside = sum(e <= cell["score_bound"] for e in cell["score_errs"])
        assert inside >= 95, (p, inside)
    report("6 score containment", "known-scale score error within the bound at every p")


def test_c07_scale_estimator_robustness():
    n, p, eta = 500, 0.25, 0.7
    wins = 0
    for trial in range(100):
        scores = generate_scores("gamma", n, seed=31337 + trial, a=0.5, b=1.0)
        mset = generate_ero(scores, EROParams(n=n, p=p, eta=eta, seed=91000 + trial))
        H = build_H(mset)
        s = svd_rs(H).direction
        tau_med = recover_scale_median(compute_ratio_entries(H, s))
        tau_ls = recover_scale_ls(H, s)
        r = scores.values
        gt_vals = r[H.rows] - r[H.cols]
        offsets = s[H.rows] - s[H.cols]
        keep = np.abs(offsets) > 1e-12 * (s.max() - s.min())
        tau_med_gt = float(np.median(gt_vals[keep] / offsets[keep]))
        tau_ls_gt = float(gt_vals.sum() / offsets.sum())
        rel_med = abs(tau_med - tau_med_gt) / abs(tau_med_gt)
        rel_ls = abs(tau_ls - tau_ls_gt) / abs(tau_ls_gt)
        wins += rel_med < rel_ls
    assert wins >= 80
    report("7 scale robustness", f"median estimator closer to ground truth in {wins}/100")


def test_c08_matrix_completion_recovery():
    n, p = 100, 0.3
    scores = generate_scores("linear", n)
    r = scores.values
    C = np.subtract.outer(r, r)
    start = time.perf_counter()
    mset = generate_ero(scores, EROParams(n=n, p=p, eta=1.0, seed=777))
    comp = complete_matrix(mset)
    rel = np.linalg.norm(comp.matrix - C) / np.linalg.norm(C)
    assert rel < 1e-3, rel
    res = svd_rs(comp.to_sparse(), scale_from=build_H(mset))
    kd = kendall_distance(ranking_from_scores(r), res.permutation)
    elapsed = time.perf_counter() - start
    assert kd == 0
    assert elapsed < 60.0
    report("8 completion recovery",
           f"relative error {rel:.2e}, downstream Kendall distance 0, "
           f"runtime {elapsed:.1f} s")


def test_c09_least_squares_oracle():
    rng = np.random.default_rng(888)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 51))
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < 0.2
        keep[ju - iu == 1] = True
        i, j = iu[keep], ju[keep]
        w = rng.standard_normal(i.size)
        res = least_squares_rank(SkewSparseMatrix(n, i, j, w), tol=1e-12)
        B = np.zeros((i.size, n))
        B[np.arange(i.size), i] = 1.0
        B[np.arange(i.size), j] = -1.0
        oracle = np.linalg.pinv(B) @ w
        oracle -= oracle.mean()
        worst = max(worst, float(np.linalg.norm(res.score_estimate - oracle)))
    assert worst < 1e-6
    report("9 least-squares oracle", f"worst deviation {worst:.2e} over 20 instances")


def test_c10_qualitative_sweep_shape():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        n=1000, p_grid=(1.0,),
        gamma_grid=tuple(round(g, 1) for g in np.arange(0.0, 0.71, 0.1)),
        trials=20, seed=20240501, scores="uniform01",
        algorithms=("svd_rs", "svd_nrs", "rowsum", "least_squares"),
        metrics=("kendall",))
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    means: dict[str, dict[float, float]] = {}
    for row in rows:
        if row.agg and row.stat == "mean":
            assert row.trials_ok == 20
            means.setdefault(row.algorithm, {})[row.gamma] = row.kendall
    gammas = sorted(cfg.gamma_grid)
    for alg, per_gamma in means.items():
        seq = [per_gamma[g] for g in gammas]
        assert all(b >= a for a, b in zip(seq, seq[1:])), (alg, seq)
    for g in gammas:
        if g <= 0.3:
            best_baseline = min(means["rowsum"][g], means["least_squares"][g])
            assert means["svd_rs"][g] <= 1.25 * best_baseline, g
            assert means["svd_nrs"][g] <= 1.25 * best_baseline, g
    assert elapsed < 600.0
    report("10 qualitative sweep shape",
           f"monotone in gamma for all methods, spectral within 1.25x of the "
           f"best baseline up to gamma=0.3, runtime {elapsed:.0f} s")


def test_c11_metric_oracles():
    rng = np.random.default_rng(4242)
    for _ in range(100):
        n = int(rng.integers(2, 31))
        a, b = rng.permutation(n), rng.permutation(n)
        pos_a = np.empty(n, dtype=int)
        pos_a[a] = np.arange(n)
        pos_b = np.empty(n, dtype=int)
        pos_b[b] = np.arange(n)
        kd = disp = 0
        per_item = np.zeros(n, dtype=int)
        for i, j in itertools.combinations(range(n), 2):
            if (pos_a[i] - pos_a[j]) * (pos_b[i] - pos_b[j]) < 0:
                kd += 1
                per_item[i] += 1
                per_item[j] += 1
        disp = int(per_item.max())
        assert kendall_distance(a, b) == kd
        assert max_displacement(a, b) == disp

        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < 0.5
        H = SkewSparseMatrix(n, iu[keep], ju[keep],
                             np.round(rng.standard_normal(int(keep.sum())), 1))
        s = rng.standard_normal(n)
        expected_upsets = 0
        expected_weighted = 0.0
        for i, j, v in zip(H.rows, H.cols, H.values):
            d = s[i] - s[j]
            expected_upsets += int(np.sign(v) * np.sign(d) == -1)
            expected_weighted += abs(v - d)
        assert count_upsets(H, s) == expected_upsets
        assert weighted_upsets(H, s) == pytest.approx(expected_weighted, abs=1e-9)
    report("11 metric oracles", "all four metrics equal enumeration on 100 instances")


def test_c12_sweep_determinism(tmp_path):
    cfg = ExperimentConfig(
        n=60, p_grid=(0.3, 1.0), gamma_grid=(0.0, 0.4), trials=3, seed=99,
        scores="uniform01", algorithms=("svd_rs", "rowsum"),
        metrics=("kendall", "rmse", "upsets"))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_sweep(cfg), str(out_a))
    write_csv(run_sweep(cfg), str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    report("12 determinism", "identical seed reproduces byte-identical CSV")
