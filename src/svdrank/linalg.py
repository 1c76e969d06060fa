"""Sparse skew-symmetric matrices and the top-2 spectral primitives.

The measurement matrix is skew-symmetric, so each unordered pair is stored
exactly once (row < col) and the mirrored entry is implied by negation.
Only :class:`SkewSparseMatrix` knows this layout; other modules use its
``from_pairs``, ``offsets``, ``node_sums``, ``restrict`` and
``largest_component``. It also owns the value range: the magnitudes of the
values sum to at most ``VALUE_SUM_LIMIT`` (2^1021), checked once at
construction, so no algorithm checks for overflow on its own.

Products with H run over the edge list (two gathers and two bincounts over
the m entries) unless the graph is dense: when the n x n float64 array is no
larger than the edge list itself (8 n^2 <= 24 m bytes, i.e. 3 m >= n^2) the
matrix builds that array on its first product, keeps it, and multiplies with
BLAS. Memory stays O(m) either way, so no kernel here needs O(n^2) memory on
a sparse graph.

Because H^T = -H, the eigenvalues of H are +-i sigma_k: every singular value
has even multiplicity, the dominant singular pair is always degenerate, and
its two left singular vectors span the real invariant subspace of +-i sigma_1.
``top2_svd`` finds that subspace by Lanczos on H itself (Greif, Paige,
Titley-Peloquin & Varah, SIMAX 2016): a single real start vector reaches it,
since +-i sigma_1 are simple eigenvalues of H, and the zero-diagonal
recurrence H q_k = beta_k q_{k+1} - beta_{k-1} q_{k-1} costs one matvec per
basis vector. That recurrence is Golub-Kahan bidiagonalisation in disguise:
H maps the even-numbered basis vectors into the span of the odd-numbered ones
and back, so the small skew projection V^T H V couples only even with odd
columns, and every Ritz pair comes from the SVD of the half-size block
between them. The solver keeps the basis orthonormal by full
reorthogonalisation, takes that block's SVD every four steps (Rayleigh-Ritz),
and restarts onto its leading Ritz pairs once the basis is full
(Krylov-Schur, Stewart 2001; Baglama & Reichel, SISC 2005, for the
bidiagonal form). A Krylov method needs about sqrt(1/gap) steps where power
iteration needs about 1/gap, and the basis costs O(n) memory per column.

``top2_svd`` reads its operator through ``n``, ``matvec`` and ``max_abs``
only, so the degree-normalised D^{-1/2} H D^{-1/2} of ``svd_nrs`` is a
:class:`ScaledOperator` that multiplies through H's own products (and H's
own dense array) rather than a second, scaled edge list. The solver scales
every product by the power of two 2^-e just above ``max_abs`` and scales the
singular values back, so no input scale that the edge list accepts makes
its squared norms underflow or overflow, and in-range results are
bit-identical to unscaled arithmetic.

``orthonormal_complement_in_span`` turns the pair into the ranking
direction: the in-span unit vector orthogonal to the projection of a
reference vector, from that vector's two inner products with u1 and u2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidParam,
    NotConverged,
    ZeroProjection,
)


# Largest n with n * n - 1 <= int64 max, so a pair key lo * n + hi cannot overflow.
_MAX_KEYED_N = 3037000499
# Largest sum of entry magnitudes an edge list may hold. Every row sum and
# every |(Hx)_i| with max |x_i| <= 1 is then at most 2^1021, and so is
# sigma1 <= ||H||_inf; centred row sums stay below 2^1022 and their offsets
# below 2^1023.
VALUE_SUM_LIMIT = math.ldexp(1.0, 1021)


@dataclass(frozen=True)
class SkewSparseMatrix:
    """n x n skew-symmetric matrix stored as one entry per unordered pair.

    This is also the package's edge list of pairwise measurements: entry k
    says item ``rows[k]`` exceeds item ``cols[k]`` by ``values[k]``.
    ``rows[k] < cols[k]`` holds for every stored entry, no pair is stored
    twice and the magnitudes of the values sum to at most
    ``VALUE_SUM_LIMIT`` (2^1021), which NaN and infinity fail; the value at
    (cols[k], rows[k]) is ``-values[k]`` and the diagonal is zero. The
    arrays are validated once here, made read-only and kept in the order
    given.

    ``matvec`` on a dense graph (3 m >= n^2, where the n x n array takes no
    more bytes than the three m-entry arrays) multiplies with a read-only
    dense copy built on the first product and kept with the matrix, so the
    memory stays O(m); on a sparser graph it runs over the edge list.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if self.n < 1:
            raise InvalidParam("n must be >= 1")
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise DimensionMismatch("rows, cols, values must be 1-d arrays of equal length")
        if rows.size:
            if rows.min() < 0 or cols.max() >= self.n:
                raise InvalidParam("entry index out of range")
            if np.any(rows >= cols):
                raise InvalidParam("entries must satisfy row < col (stored once per pair)")
            keys = rows * self.n + cols
            if np.any(keys[1:] <= keys[:-1]):  # not strictly increasing: sort a copy
                keys = np.sort(keys)
            if np.any(keys[1:] == keys[:-1]):
                raise InvalidParam("duplicate unordered pair")
            with np.errstate(over="ignore"):
                if not np.abs(values).sum() <= VALUE_SUM_LIMIT:  # NaN fails too
                    raise InvalidParam("entry magnitudes must sum to at most 2^1021")
        for name, arr in (("rows", rows), ("cols", cols), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_entries(self) -> int:
        return int(self.rows.size)

    @property
    def max_abs(self) -> float:
        """Largest entry magnitude (the max-norm of the matrix)."""
        return float(np.abs(self.values).max()) if self.values.size else 0.0

    @cached_property
    def is_connected(self) -> bool:
        return bool(component_labels(self).max() == 0)

    @cached_property
    def _dense(self) -> np.ndarray | None:
        """Read-only ``to_dense()`` when it is no larger than the edge list, else None."""
        if 3 * self.num_entries < self.n * self.n:
            return None
        dense = self.to_dense()
        dense.setflags(write=False)
        return dense

    def offsets(self, s: np.ndarray) -> np.ndarray:
        """Per-entry score offsets s[rows[k]] - s[cols[k]]."""
        s = np.asarray(s, dtype=np.float64)
        if s.shape != (self.n,):
            raise DimensionMismatch("score vector length does not match matrix")
        return s[self.rows] - s[self.cols]

    def node_sums(self, w: np.ndarray) -> np.ndarray:
        """Per-node sums of per-entry weights: +w[k] at rows[k], -w[k] at cols[k]."""
        return (np.bincount(self.rows, weights=w, minlength=self.n)
                - np.bincount(self.cols, weights=w, minlength=self.n))

    def restrict(self, keep: np.ndarray) -> "SkewSparseMatrix":
        """The matrix on the nodes where ``keep`` holds, renumbered in order, entries in order."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.n,):
            raise DimensionMismatch("node mask has wrong length")
        new_index = np.cumsum(keep) - 1
        inside = keep[self.rows] & keep[self.cols]
        return SkewSparseMatrix(int(new_index[-1]) + 1, new_index[self.rows[inside]],
                                new_index[self.cols[inside]], self.values[inside])

    def largest_component(self) -> tuple["SkewSparseMatrix", np.ndarray]:
        """The matrix on its largest connected component, and that component's node mask.

        Ties go to the component holding the smallest node. A connected
        matrix is returned as itself. Either way the result's
        ``is_connected`` is known from this one labelling and never computed
        again.
        """
        labels = component_labels(self)
        counts = np.bincount(labels)
        main = int(np.argmax(counts))
        largest = labels == main
        result = self if counts[main] == self.n else self.restrict(largest)
        result.__dict__["is_connected"] = True  # where cached_property keeps its value
        return result, largest

    @staticmethod
    def from_pairs(n: int, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> "SkewSparseMatrix":
        """Matrix of measurements "i[k] exceeds j[k] by v[k]" in either orientation.

        A reversed pair (i > j) counts as (j, i, -v) and a repeated pair sums
        its values in input order. Entries come out sorted by pair, keyed by
        lo * n + hi, which must fit in int64.
        """
        if n > _MAX_KEYED_N:
            raise InvalidParam(f"n={n} is too large: pair keys would overflow int64")
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        v = np.asarray(v, dtype=np.float64)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        if lo.size and (lo.min() < 0 or hi.max() >= n):
            raise InvalidParam("entry index out of range")
        keys, slot = np.unique(lo * n + hi, return_inverse=True)
        sums = np.bincount(slot, weights=np.where(i < j, v, -v))
        return SkewSparseMatrix(n, keys // n, keys % n, sums)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Product Hx using the antisymmetric completion of the stored entries."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"expected vector of length {self.n}, got {x.shape}")
        if self._dense is not None:
            return self._dense @ x
        if not self.rows.size:
            return np.zeros(self.n)
        upper = self.values * x[self.cols]
        lower = self.values * x[self.rows]
        return (np.bincount(self.rows, weights=upper, minlength=self.n)
                - np.bincount(self.cols, weights=lower, minlength=self.n))

    def abs_row_sums(self) -> np.ndarray:
        """Diagonal of the absolute-degree matrix: sum_j |H_ij| per row."""
        a = np.abs(self.values)
        return (np.bincount(self.rows, weights=a, minlength=self.n)
                + np.bincount(self.cols, weights=a, minlength=self.n))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        dense[self.rows, self.cols] = self.values
        dense[self.cols, self.rows] = -self.values
        return dense

    @staticmethod
    def from_dense(dense: np.ndarray) -> "SkewSparseMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise DimensionMismatch("expected a square matrix")
        if not np.allclose(dense, -dense.T, atol=1e-10 * max(1.0, np.abs(dense).max())):
            raise InvalidParam("matrix is not skew-symmetric")
        i, j = np.triu_indices(dense.shape[0], 1)
        v = dense[i, j]
        keep = v != 0
        return SkewSparseMatrix(dense.shape[0], i[keep], j[keep], v[keep])


@dataclass(frozen=True)
class ScaledOperator:
    """diag(d) H diag(d) as :func:`top2_svd` reads it: ``n``, ``matvec`` and ``max_abs``.

    No scaled edge list or second dense array is made: each product is
    ``d * H.matvec(d * x)``, one product with H, which uses H's own dense
    array when H has one. ``max_abs`` is exact, the largest
    ``(|H_ij| d_i) d_j`` over the stored entries.
    """

    H: SkewSparseMatrix
    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if d.shape != (self.H.n,):
            raise DimensionMismatch("scaling vector has wrong length")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.H.n

    @property
    def max_abs(self) -> float:
        if not self.H.num_entries:
            return 0.0
        a = np.abs(self.H.values)
        a *= self.d[self.H.rows]
        a *= self.d[self.H.cols]
        return float(a.max())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.d * self.H.matvec(self.d * x)


@dataclass(frozen=True)
class SpectralPair:
    """Orthonormal top-2 left singular vectors with their singular values."""

    u1: np.ndarray
    u2: np.ndarray
    sigma1: float
    iterations: int = 0
    residual: float = 0.0
    sigma3: float = float("nan")  # lower bound on the third singular value, if known
    matvecs: int = 0  # products with H that the solver took

    def __post_init__(self):
        u1 = np.asarray(self.u1, dtype=np.float64)
        u2 = np.asarray(self.u2, dtype=np.float64)
        if u1.shape != u2.shape or u1.ndim != 1:
            raise DimensionMismatch("u1, u2 must be vectors of equal length")
        if abs(np.linalg.norm(u1) - 1.0) > 1e-10 or abs(np.linalg.norm(u2) - 1.0) > 1e-10:
            raise InvalidParam("singular vectors must have unit norm")
        if abs(float(u1 @ u2)) > 1e-10:
            raise InvalidParam("singular vectors must be orthogonal")
        if self.sigma3 > self.sigma1 or self.sigma3 < 0.0:
            raise InvalidParam("need sigma1 >= sigma3 >= 0 when sigma3 is known")
        for name, arr in (("u1", u1), ("u2", u2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def sigma2(self) -> float:
        """The second singular value, which equals ``sigma1``.

        A skew H has every singular value twice (its eigenvalues come in
        pairs +-i sigma_k), so u1 and u2 share one singular value.
        """
        return self.sigma1

    @property
    def basis(self) -> np.ndarray:
        """n x 2 matrix with the two vectors as columns."""
        return np.column_stack([self.u1, self.u2])


# Lanczos sizes for top2_svd: the basis holds at most LANCZOS_BASIS vectors
# whose products are known, plus the next one; a thick restart then keeps
# the LANCZOS_KEEP / 2 leading Ritz pairs. The basis and its products cost
# O(n * LANCZOS_BASIS). An iteration is LANCZOS_STEPS steps, one matvec
# each, followed by one Rayleigh-Ritz check. Basis vector j lies on side
# j mod 2 (see _ritz_pairs): each step, a breakdown refill included, puts its
# vector opposite the previous one, and a restart puts Ritz pair i in
# columns 2i and 2i + 1 and moves the next vector from column k to column
# LANCZOS_KEEP, where k is 0 or LANCZOS_KEEP plus a multiple of
# LANCZOS_STEPS. Both constants are even, so that vector keeps its side.
LANCZOS_BASIS = 40
LANCZOS_KEEP = 16
LANCZOS_STEPS = 4
# A new basis vector left with at most this share of the norm of its
# operator product after orthogonalisation is a breakdown: the Krylov space
# is invariant up to rounding, and the vector is replaced by a seeded random
# direction.
BREAKDOWN = 1e-13


def _orthogonalise(w: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w with the span of V's orthonormal columns removed, and the coefficients removed.

    Classical Gram-Schmidt applied twice.
    """
    c = V.T @ w
    w = w - V @ c
    c2 = V.T @ w
    return w - V @ c2, c + c2


def _random_direction(V: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Unit Gaussian draw from ``rng`` orthogonal to V, which has fewer columns than rows."""
    while True:
        w = rng.standard_normal(V.shape[0])
        ref = np.linalg.norm(w)
        w, _ = _orthogonalise(w, V)
        norm = np.linalg.norm(w)
        if norm > BREAKDOWN * ref:
            return w / norm


def _ritz_pairs(S: np.ndarray, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of B = S[0::2, 1::2] and the leading ``pairs`` Ritz pairs of S.

    S is k x k skew and couples only even with odd indices; its entries
    between two even or two odd indices are taken to be rounding and are
    not read. With B = X diag(sigma) W^T, S maps x_j on the even indices to
    -sigma_j w_j on the odd ones and w_j to sigma_j x_j, so together they
    span the invariant subspace of +-i sigma_j: S has each sigma_j twice,
    plus one zero for each even index beyond the odd ones. Returns sigma,
    descending, and the orthonormal k x (2 ``pairs``) Y whose columns 2j and
    2j + 1 are x_j and w_j, each zero on the other side.
    """
    X, sigma, Wt = np.linalg.svd(S[0::2, 1::2], full_matrices=False)
    Y = np.zeros((S.shape[0], 2 * pairs))
    Y[0::2, 0::2] = X[:, :pairs]
    Y[1::2, 1::2] = Wt[:pairs].T
    return sigma, Y


def top2_svd(H: SkewSparseMatrix | ScaledOperator, tol: float = 1e-10, max_iter: int = 2000,
             seed: int = 0) -> SpectralPair:
    """Dominant singular pair of H by restarted Lanczos on H itself.

    H is read through ``n``, ``matvec`` and ``max_abs`` only. Every product
    is multiplied by 2^-e, with 2^(e-1) <= ``max_abs`` < 2^e, so the solve
    sees a matrix whose largest entry lies in [1/2, 1): squared norms
    neither underflow nor overflow at any scale of the input, and since a
    power-of-two scale is exact, in-range inputs give the same bits as
    unscaled arithmetic would. The singular values are scaled back by 2^e.

    Each Lanczos step multiplies the newest basis vector by H (one matvec),
    stores the product, and orthogonalises it against the whole basis (full
    reorthogonalisation); the remainder, normalised, is the next basis
    vector, so H V = V G + v e^T with G = V^T H V skew. A remainder of at
    most ``BREAKDOWN`` of the product's norm is a breakdown, and a seeded
    Gaussian direction replaces it; that step still spent its matvec. An
    iteration is ``LANCZOS_STEPS`` (four) steps, so it makes exactly four
    matvecs, followed by a Rayleigh-Ritz check. The basis alternates between
    two chains that H maps into each other (the even and the odd columns),
    so the skew part S of G couples only the two, and the check takes the
    SVD of the block between them (see ``_ritz_pairs``): its top pair gives
    u1, u2 and their shared singular value sigma1, and its second singular
    value gives sigma3.
    A refill after a breakdown goes opposite the previous vector like any
    other; it couples to the earlier basis only at the ``BREAKDOWN`` level,
    so either side would keep S bipartite. The only exception to four
    matvecs per iteration is a basis that already spans all of R^n
    (n <= ``LANCZOS_BASIS``): the projection is then exact and no further
    product is taken. When the
    next iteration would exceed ``LANCZOS_BASIS`` vectors, a thick restart
    (Krylov-Schur) keeps the ``LANCZOS_KEEP`` / 2 leading Ritz pairs, whose
    products are the same combinations of the stored ones, so no matvec is
    spent on it. The returned ``matvecs`` counts the products taken.

    ``tol`` bounds the relative residual ||(-H^2)u - sigma^2 u|| / sigma^2
    of -H^2. With U = [u1 u2], H U = U M + R for the 2 x 2 skew
    M = U^T H U, and then (-H^2) U - sigma^2 U = -(R M + H R), so that
    residual is at most 2 ||R|| / sigma1 up to the difference between
    sigma1 and its Ritz value. The check estimates ||R|| from the last row
    of G; once the estimate passes, ||R|| is measured from the stored
    products, and the pair converges when 2 ||R|| / sigma1 <= ``tol``. That
    measured value is the returned ``residual``, so the same-side entries
    that the block leaves out cannot let an unconverged pair through.

    The start vector is seeded Gaussian, so runs are reproducible.
    ``sigma3`` is a lower bound on the third singular value by Cauchy
    interlacing for the Hermitian iH: 0 when the block has a single singular
    value, nan while the basis has two vectors. Raises DegenerateSpectrum
    for a numerically zero matrix and NotConverged (carrying the partial
    result) when ``max_iter`` is exhausted.
    """
    if H.n < 2:
        raise InvalidParam("need n >= 2")
    if tol <= 0 or max_iter < 1:
        raise InvalidParam("tol must be positive and max_iter >= 1")
    scale, e = math.frexp(H.max_abs)  # the scaled matrix's max_abs and 2^e
    if scale == 0.0:
        raise DegenerateSpectrum("matrix has no nonzero entries")

    n = H.n
    rng = np.random.default_rng(seed)
    cap = min(LANCZOS_BASIS + 1, n)
    V = np.empty((n, cap), order="F")  # orthonormal basis; V[:, k] is the next vector
    AV = np.empty((n, cap), order="F")  # H V[:, :k]
    G = np.zeros((cap + 1, cap))  # H V[:, :k] = V[:, :k + 1] G[:k + 1, :k]
    floor = max(tol * scale * n, np.finfo(float).tiny)
    start = rng.standard_normal(n)
    V[:, 0] = start / np.linalg.norm(start)

    k = 0  # basis vectors whose products are known
    matvecs = 0
    for sweep in range(1, max_iter + 1):
        for _ in range(LANCZOS_STEPS):
            if k == n:  # the basis spans R^n
                break
            AV[:, k] = np.ldexp(H.matvec(V[:, k]), -e)
            matvecs += 1
            w, G[:k + 1, k] = _orthogonalise(AV[:, k], V[:, :k + 1])
            k += 1
            if k < n:
                beta = np.linalg.norm(w)
                if beta > BREAKDOWN * np.linalg.norm(AV[:, k - 1]):
                    G[k, k - 1], V[:, k] = beta, w / beta
                else:
                    G[k, k - 1], V[:, k] = 0.0, _random_direction(V[:, :k], rng)
        restart = k < n and k + LANCZOS_STEPS > LANCZOS_BASIS
        S = 0.5 * (G[:k, :k] - G[:k, :k].T)
        theta, Y = _ritz_pairs(S, LANCZOS_KEEP // 2 if restart else 1)
        # H V Y = V S Y + v g^T Y with g the next vector's row of G, and the
        # first two columns of Y span an invariant subspace of S, so the
        # residual R of that pair is v times g^T Y[:, :2].
        estimate = 2.0 * np.abs(G[k, :k] @ Y[:, :2]).max() / max(theta[0], floor)
        if sweep == max_iter or estimate <= tol:
            U = V[:, :k] @ Y[:, :2]
            HU = AV[:, :k] @ Y[:, :2]
            M = U.T @ HU
            R = HU - U @ (0.5 * (M - M.T))
            residual = 2.0 * np.linalg.norm(R, axis=0).max() / max(theta[0], floor)
            if residual <= tol or sweep == max_iter:
                break
        if restart:
            V[:, :LANCZOS_KEEP] = V[:, :k] @ Y
            V[:, LANCZOS_KEEP] = V[:, k]
            AV[:, :LANCZOS_KEEP] = AV[:, :k] @ Y
            row = G[k, :k] @ Y
            G[:k + 1, :k] = 0.0
            G[:LANCZOS_KEEP, :LANCZOS_KEEP] = Y.T @ S @ Y
            G[LANCZOS_KEEP, :LANCZOS_KEEP] = row
            k = LANCZOS_KEEP
    if theta.size > 1:
        sigma3 = math.ldexp(theta[1], e)
    else:
        sigma3 = 0.0 if k > 2 else float("nan")
    pair = SpectralPair(u1=U[:, 0], u2=U[:, 1], sigma1=math.ldexp(theta[0], e), sigma3=sigma3,
                        iterations=sweep, residual=float(residual), matvecs=matvecs)
    if theta[0] <= tol * scale * n:
        raise DegenerateSpectrum("top singular value is numerically zero")
    if residual > tol:
        raise NotConverged(f"Lanczos stalled at residual {residual:.3e}",
                           result=pair, residual=float(residual), iterations=sweep)
    return pair


def orthonormal_complement_in_span(v: np.ndarray, basis: SpectralPair) -> np.ndarray:
    """Unit vector inside span{u1, u2} orthogonal to the projection of ``v`` onto it.

    With a = u1 . v and b = u2 . v, the projection is a u1 + b u2 and the
    result is (-b u1 + a u2) / hypot(a, b); a ``v`` already in the span
    gives the unit vector orthogonal to ``v`` itself. The overall sign is
    arbitrary; callers resolve it downstream. Raises ZeroProjection when
    hypot(a, b) <= 1e-12 ||v||, which signals that the reference direction
    is orthogonal to the recovered subspace and the spectral estimate is
    unusable.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != basis.u1.shape:
        raise DimensionMismatch("vector length does not match basis")
    a = float(basis.u1 @ v)
    b = float(basis.u2 @ v)
    in_span = np.hypot(a, b)
    if in_span <= 1e-12 * np.linalg.norm(v):
        raise ZeroProjection("projection of the reference direction is numerically zero")
    return (-b * basis.u1 + a * basis.u2) / in_span


def component_labels(H: SkewSparseMatrix) -> np.ndarray:
    """Connected-component label per node of H's graph, numbered by smallest node.

    Each round hooks the larger root of every edge's ends under the smaller
    one and jumps pointers until each node points at its root, so a
    component ends rooted at its smallest node.
    """
    parent = np.arange(H.n)
    rows, cols = H.rows, H.cols
    # In the first round every node is its own root and rows < cols, so it
    # needs no gather: it hooks each node under its smallest neighbour below.
    at, to = cols, rows
    while at.size:
        np.minimum.at(parent, at, to)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        a, b = parent[rows], parent[cols]
        apart = a != b
        rows, cols, a, b = rows[apart], cols[apart], a[apart], b[apart]
        # Both orientations in one pass: each root takes its smallest neighbour root.
        at, to = np.concatenate([a, b]), np.concatenate([b, a])
    return np.unique(parent, return_inverse=True)[1]
