from __future__ import annotations

import itertools

import numpy as np
import pytest

from svdrank.errors import DegenerateVariance, DimensionMismatch
from svdrank.linalg import SkewSparseMatrix
from svdrank.metrics import (
    _greater_before,
    count_upsets,
    kendall_distance,
    max_displacement,
    pearson_correlation,
    rmse,
    weighted_upsets,
)

from matrix_helpers import noiseless_matrix


def kendall_bruteforce(a, b):
    pos_a = np.empty(a.size, dtype=int)
    pos_a[a] = np.arange(a.size)
    pos_b = np.empty(b.size, dtype=int)
    pos_b[b] = np.arange(b.size)
    count = 0
    for i, j in itertools.combinations(range(a.size), 2):
        if (pos_a[i] - pos_a[j]) * (pos_b[i] - pos_b[j]) < 0:
            count += 1
    return count


def displacement_bruteforce(pi, pi_hat):
    pos = np.empty(pi.size, dtype=int)
    pos[pi] = np.arange(pi.size)
    pos_hat = np.empty(pi_hat.size, dtype=int)
    pos_hat[pi_hat] = np.arange(pi_hat.size)
    worst = 0
    for i in range(pi.size):
        c = 0
        for j in range(pi.size):
            if pos[j] > pos[i] and pos_hat[j] < pos_hat[i]:
                c += 1
            if pos[j] < pos[i] and pos_hat[j] > pos_hat[i]:
                c += 1
        worst = max(worst, c)
    return worst


class TestGreaterBefore:
    def test_matches_bruteforce(self, rng):
        for n in (0, 1, 2, 3, 5, 8, 9, 31, 64, 1500):
            seq = rng.permutation(n)
            earlier = np.arange(n)[:, None] < np.arange(n)[None, :]
            expected = (earlier & (seq[:, None] > seq[None, :])).sum(axis=0)
            assert np.array_equal(_greater_before(seq), expected), n

    def test_sorted_and_reversed(self):
        assert np.array_equal(_greater_before(np.arange(7)), np.zeros(7))
        assert np.array_equal(_greater_before(np.arange(7)[::-1]), np.arange(7))


class TestKendall:
    def test_equal_permutations(self):
        a = np.array([2, 0, 1])
        assert kendall_distance(a, a) == 0

    def test_full_reversal(self):
        a = np.arange(4)
        assert kendall_distance(a, a[::-1]) == 6

    def test_matches_bruteforce(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 31))
            a = rng.permutation(n)
            b = rng.permutation(n)
            assert kendall_distance(a, b) == kendall_bruteforce(a, b)

    def test_metric_properties(self, rng):
        for _ in range(10):
            n = 12
            a, b, c = rng.permutation(n), rng.permutation(n), rng.permutation(n)
            dab = kendall_distance(a, b)
            assert dab == kendall_distance(b, a)
            assert (dab == 0) == bool(np.array_equal(a, b))
            assert dab <= kendall_distance(a, c) + kendall_distance(c, b)

    def test_normalized(self):
        a = np.arange(4)
        assert kendall_distance(a, a[::-1], normalized=True) == pytest.approx(1.0)

    def test_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kendall_distance(np.arange(3), np.arange(4))


class TestPearson:
    def test_affine_invariance(self, rng):
        r = rng.standard_normal(20)
        assert pearson_correlation(r, 2.0 * r + 3.0) == pytest.approx(1.0)
        assert pearson_correlation(r, -r) == pytest.approx(-1.0)

    def test_matches_formula(self, rng):
        r = rng.standard_normal(20)
        s = rng.standard_normal(20)
        x, y = r - r.mean(), s - s.mean()
        expected = (x @ y) / np.sqrt((x @ x) * (y @ y))
        assert pearson_correlation(r, s) == pytest.approx(expected, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateVariance):
            pearson_correlation(np.ones(5), np.arange(5.0))


class TestRmse:
    def test_shift_invariance(self, rng):
        r = rng.standard_normal(15)
        assert rmse(r, r + 7.5) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert rmse(np.array([-1.0, 1.0]), np.array([1.0, -1.0])) == pytest.approx(2.0)

    def test_matches_elementwise_oracle(self, rng):
        r = rng.standard_normal(25)
        s = rng.standard_normal(25)
        c = r - r.mean()
        ch = s - s.mean()
        assert rmse(r, s) == pytest.approx(np.sqrt(np.mean((c - ch) ** 2)), abs=1e-12)


class TestUpsets:
    def test_consistent_scores_no_upsets(self):
        r = np.array([4.0, 2.0, 1.0, 3.0])
        H = noiseless_matrix(r)
        assert count_upsets(H, r) == 0

    def test_total_reversal(self):
        r = np.array([1.0, 2.0, 3.0])
        H = noiseless_matrix(r)
        assert count_upsets(H, -r) == 3

    def test_hand_instance(self):
        # 4 nodes, edges (0,1)=+1, (0,2)=-2, (1,3)=0, (2,3)=+5
        H = SkewSparseMatrix(4, np.array([0, 0, 1, 2]), np.array([1, 2, 3, 3]),
                             np.array([1.0, -2.0, 0.0, 5.0]))
        s = np.array([3.0, 1.0, 4.0, 2.0])
        # offsets: (0,1)=+2 ok; (0,2)=-1 ok; (1,3)=-1 but R=0 no upset; (2,3)=+2 ok
        assert count_upsets(H, s) == 0
        s2 = np.array([1.0, 3.0, 4.0, 2.0])
        # offsets: (0,1)=-2 upset; (0,2)=-3 ok; (2,3)=+2 ok
        assert count_upsets(H, s2) == 1

    def test_sign_flip_bound(self, rng):
        for _ in range(10):
            n = 12
            iu, ju = np.triu_indices(n, 1)
            keep = rng.random(iu.size) < 0.4
            H = SkewSparseMatrix(n, iu[keep], ju[keep],
                                 rng.standard_normal(int(keep.sum())))
            s = rng.standard_normal(n)
            assert count_upsets(H, s) + count_upsets(H, -s) <= H.num_entries

    def test_weighted(self):
        r = np.array([1.0, 2.0, 4.0])
        H = noiseless_matrix(r)
        assert weighted_upsets(H, r - r.mean()) == pytest.approx(0.0)
        assert weighted_upsets(H, np.zeros(3)) == pytest.approx(np.abs(H.values).sum())

    def test_weighted_hand_instance(self):
        H = SkewSparseMatrix(3, np.array([0, 1]), np.array([1, 2]), np.array([2.0, -1.0]))
        s = np.array([1.0, 0.0, 2.0])
        # |2 - 1| + |-1 - (-2)| = 2
        assert weighted_upsets(H, s) == pytest.approx(2.0)


class TestMaxDisplacement:
    def test_identity(self):
        assert max_displacement(np.arange(5), np.arange(5)) == 0

    def test_adjacent_transposition(self):
        assert max_displacement(np.arange(3), np.array([1, 0, 2])) == 1

    def test_full_reversal_hits_bound(self):
        n = 9
        assert max_displacement(np.arange(n), np.arange(n)[::-1]) == n - 1

    def test_matches_bruteforce(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 16))
            a, b = rng.permutation(n), rng.permutation(n)
            value = max_displacement(a, b)
            assert value == displacement_bruteforce(a, b)
            assert value <= n - 1
