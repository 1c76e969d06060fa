"""Fast built-in checks behind the ``selftest`` CLI verb.

Each check exercises one documented example or invariant with a hand-known
or independently computed expected value. The full pytest suite is the
authoritative gate; this is a dependency-free smoke test.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .algorithms import (
    center,
    recover_scale_ls,
    recover_scale_median,
    reconcile_sign,
    svd_nrs,
    svd_rs,
)
from .baselines import (
    CompletionConfig,
    complete_matrix,
    least_squares_rank,
    rowsum_rank,
)
from .errors import DegenerateSpectrum, GraphDisconnectedWarning
from .linalg import SkewSparseMatrix, top2_svd
from .metrics import count_upsets, kendall_distance, max_displacement, rmse
from .model import EROParams, build_H, generate_ero, generate_scores
from .theory import delta_spectral, BoundParams, ModelStats


def _noiseless(r: np.ndarray) -> SkewSparseMatrix:
    n = r.size
    i, j = np.triu_indices(n, 1)
    return SkewSparseMatrix(n, i, j, r[i] - r[j])


def _checks():
    yield "matvec antisymmetry", _check_matvec
    yield "top2 singular identity", _check_top2_identity
    yield "top2 one iteration on a noiseless 3-node matrix", _check_top2_one_iteration
    yield "degenerate spectrum", _check_degenerate
    yield "noiseless exact recovery", _check_noiseless
    yield "two-node centering", _check_two_node
    yield "median scale robustness", _check_median
    yield "least-squares scale formula", _check_ls_scale
    yield "sign reconciliation", _check_sign
    yield "row-sum baseline", _check_rowsum
    yield "conjugate-gradient exactness on a tree", _check_cg_tree
    yield "kendall distance oracle", _check_kendall
    yield "max displacement oracle", _check_displacement
    yield "upsets count", _check_upsets
    yield "generator edge statistics", _check_ero
    yield "completion on full observations", _check_completion
    yield "spectral-norm level arithmetic", _check_delta


def _check_matvec():
    H = SkewSparseMatrix(2, np.array([0]), np.array([1]), np.array([3.0]))
    out = H.matvec(np.array([1.0, 0.0]))
    assert np.allclose(out, [0.0, -3.0]), out
    # The complete 3-node graph (3 m >= n^2) multiplies with its dense array.
    r = np.array([1.0, 2.0, 4.0])
    H = _noiseless(r)
    x = np.array([1.0, -2.0, 0.5])
    out = H.matvec(x)
    assert vars(H).get("_dense") is not None  # built by the product
    assert np.allclose(out, np.subtract.outer(r, r) @ x), out


def _check_top2_identity():
    r = np.array([1.0, 2.0, 3.0])
    pair = top2_svd(_noiseless(r))
    expected = math.sqrt(6.0)
    assert abs(pair.sigma1 - expected) < 1e-8 and abs(pair.sigma2 - expected) < 1e-8


def _check_top2_one_iteration():
    # Three Lanczos steps span R^3, so the first Ritz check is exact.
    pair = top2_svd(_noiseless(np.array([1.0, 2.0, 4.0])))
    assert pair.iterations == 1 and pair.residual <= 1e-10, (pair.iterations, pair.residual)


def _check_degenerate():
    H = SkewSparseMatrix(4, np.array([], dtype=int), np.array([], dtype=int), np.array([]))
    try:
        top2_svd(H)
    except DegenerateSpectrum:
        return
    raise AssertionError("expected DegenerateSpectrum")


def _check_noiseless():
    r = np.array([3.0, 1.0, 2.0])
    res = svd_rs(_noiseless(r))
    assert list(res.permutation) == [0, 2, 1]
    assert np.allclose(res.score_estimate, r - r.mean(), atol=1e-8)
    res_n = svd_nrs(_noiseless(r))
    assert list(res_n.permutation) == [0, 2, 1]


def _check_two_node():
    H = SkewSparseMatrix(2, np.array([0]), np.array([1]), np.array([5.0]))
    res = svd_rs(H)
    assert np.allclose(res.score_estimate, [2.5, -2.5], atol=1e-10)


def _check_median():
    assert recover_scale_median(np.array([1.0, 1.0, 1.0, 100.0, -50.0])) == 1.0
    assert recover_scale_median(np.array([-2.0, -2.0, -2.0])) == -2.0
    assert recover_scale_median(np.array([1.0, 3.0])) == 2.0


def _check_ls_scale():
    H = SkewSparseMatrix(2, np.array([0]), np.array([1]), np.array([10.0]))
    assert recover_scale_ls(H, np.array([2.0, 0.0])) == 5.0


def _check_sign():
    r = np.array([1.0, 2.0, 3.0, 4.0])
    H = _noiseless(r)
    s = r - r.mean()
    assert reconcile_sign(s, H) == 1
    assert reconcile_sign(-s, H) == -1


def _check_rowsum():
    r = np.array([1.0, 2.0, 3.0])
    res = rowsum_rank(_noiseless(r))
    assert list(res.permutation) == [2, 1, 0]


def _check_cg_tree():
    rows = np.array([0, 1, 2])
    cols = np.array([1, 2, 3])
    w = np.array([1.0, 2.0, -1.0])
    res = least_squares_rank(SkewSparseMatrix(4, rows, cols, w))
    truth = center(np.array([2.0, 1.0, -1.0, 0.0]))
    assert np.allclose(res.score_estimate, truth, atol=1e-8)


def _check_kendall():
    a = np.arange(4)
    assert kendall_distance(a, a) == 0
    assert kendall_distance(a, a[::-1]) == 6


def _check_displacement():
    assert max_displacement(np.arange(3), np.array([1, 0, 2])) == 1


def _check_upsets():
    r = np.array([1.0, 2.0, 3.0])
    H = _noiseless(r)
    assert count_upsets(H, r) == 0
    assert count_upsets(H, -r) == 3


def _check_ero():
    scores = generate_scores("linear", 3)
    mset = generate_ero(scores, EROParams(n=3, p=1.0, eta=1.0, seed=1))
    assert mset.num_entries == 3
    H = build_H(mset)
    dense = H.to_dense()
    r = scores.values
    assert np.allclose(dense, np.outer(r, np.ones(3)) - np.outer(np.ones(3), r))
    empty = SkewSparseMatrix(3, np.array([], dtype=int), np.array([], dtype=int), np.array([]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_H(empty)
    assert any(issubclass(w.category, GraphDisconnectedWarning) for w in caught)


def _check_completion():
    scores = generate_scores("linear", 12)
    mset = generate_ero(scores, EROParams(n=12, p=1.0, eta=1.0, seed=0))
    comp = complete_matrix(mset, CompletionConfig(max_iter=300))
    r = scores.values
    C = np.outer(r, np.ones(12)) - np.outer(np.ones(12), r)
    rel = np.linalg.norm(comp.matrix - C) / np.linalg.norm(C)
    assert rel < 1e-6, rel


def _check_delta():
    stats = ModelStats(n=100, p=1.0, eta=1.0, M=1.0, alpha=0.5, dev_norm=1.0, rho=0.0)
    value = delta_spectral(stats, BoundParams(epsilon=0.5))
    assert abs(value - 258.19888974716114) < 1e-9

    empty = ModelStats(n=100, p=0.0, eta=1.0, M=1.0, alpha=0.5, dev_norm=1.0, rho=0.0)
    assert delta_spectral(empty, BoundParams(epsilon=0.5)) == 0.0

    assert rmse(np.array([-1.0, 1.0]), np.array([1.0, -1.0])) == 2.0


def run_selftest(verbose: bool = True) -> bool:
    ok = True
    for name, fn in _checks():
        try:
            fn()
            status = "PASS"
        except Exception as exc:  # deliberate: report, do not abort
            status = f"FAIL ({type(exc).__name__}: {exc})"
            ok = False
        if verbose:
            print(f"[{'ok' if status == 'PASS' else 'XX'}] {name}: {status}")
    return ok
