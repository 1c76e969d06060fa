"""Sparse skew-symmetric matrices and the top-2 spectral primitives.

The measurement matrix is skew-symmetric, so each unordered pair is stored
exactly once (row < col) and the mirrored entry is implied by negation.
Only :class:`SkewSparseMatrix` knows this layout; other modules use its
``from_pairs``, ``offsets``, ``node_sums``, ``restrict`` and
``largest_component``.

Products with H run over the edge list (two gathers and two bincounts over
the m entries) unless the graph is dense: when the n x n float64 array is no
larger than the edge list itself (8 n^2 <= 24 m bytes, i.e. 3 m >= n^2) the
matrix builds that array on its first product, keeps it, and multiplies with
BLAS. Memory stays O(m) either way, so no kernel here needs O(n^2) memory on
a sparse graph.

Because H^T = -H, the Gram operator H H^T equals -H^2 and is symmetric
positive semidefinite; every singular value of a skew-symmetric matrix has
even multiplicity, so the dominant singular pair is always degenerate.
``top2_svd`` therefore runs block Lanczos with blocks of size 2 on -H^2:
full reorthogonalisation, a Rayleigh-Ritz step every iteration and a thick
restart that keeps the leading Ritz vectors once the basis is full. A
Krylov method needs about sqrt(1/gap) iterations where block power
iteration needs about 1/gap, and the basis costs O(n) memory per column.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class SkewSparseMatrix:
    """n x n skew-symmetric matrix stored as one entry per unordered pair.

    This is also the package's edge list of pairwise measurements: entry k
    says item ``rows[k]`` exceeds item ``cols[k]`` by ``values[k]``.
    ``rows[k] < cols[k]`` holds for every stored entry, no pair is stored
    twice and every value is finite; the value at (cols[k], rows[k]) is
    ``-values[k]`` and the diagonal is zero. The arrays are validated once
    here, made read-only and kept in the order given.

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
            if not np.all(np.isfinite(values)):
                raise InvalidParam("entry values must be finite")
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

    def scaled(self, d: np.ndarray) -> "SkewSparseMatrix":
        """Return the matrix with entry (i, j) multiplied by d[i] * d[j]."""
        d = np.asarray(d, dtype=np.float64)
        if d.shape != (self.n,):
            raise DimensionMismatch("scaling vector has wrong length")
        return SkewSparseMatrix(self.n, self.rows, self.cols,
                                self.values * d[self.rows] * d[self.cols])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        dense[self.rows, self.cols] = self.values
        dense[self.cols, self.rows] = -self.values
        return dense

    @staticmethod
    def from_dense(dense: np.ndarray, atol: float = 0.0) -> "SkewSparseMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise DimensionMismatch("expected a square matrix")
        if not np.allclose(dense, -dense.T, atol=1e-10 * max(1.0, np.abs(dense).max())):
            raise InvalidParam("matrix is not skew-symmetric")
        i, j = np.triu_indices(dense.shape[0], 1)
        v = dense[i, j]
        keep = np.abs(v) > atol
        return SkewSparseMatrix(dense.shape[0], i[keep], j[keep], v[keep])


@dataclass(frozen=True)
class SpectralPair:
    """Orthonormal top-2 left singular vectors with their singular values."""

    u1: np.ndarray
    u2: np.ndarray
    sigma1: float
    sigma2: float
    iterations: int = 0
    residual: float = 0.0
    sigma3: float = float("nan")  # lower bound on the third singular value, if known

    def __post_init__(self):
        u1 = np.asarray(self.u1, dtype=np.float64)
        u2 = np.asarray(self.u2, dtype=np.float64)
        if u1.shape != u2.shape or u1.ndim != 1:
            raise DimensionMismatch("u1, u2 must be vectors of equal length")
        if abs(np.linalg.norm(u1) - 1.0) > 1e-10 or abs(np.linalg.norm(u2) - 1.0) > 1e-10:
            raise InvalidParam("singular vectors must have unit norm")
        if abs(float(u1 @ u2)) > 1e-10:
            raise InvalidParam("singular vectors must be orthogonal")
        if not (self.sigma1 >= self.sigma2 >= 0.0):
            raise InvalidParam("need sigma1 >= sigma2 >= 0")
        if self.sigma3 > self.sigma2 or self.sigma3 < 0.0:
            raise InvalidParam("need sigma2 >= sigma3 >= 0 when sigma3 is known")
        for name, arr in (("u1", u1), ("u2", u2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def basis(self) -> np.ndarray:
        """n x 2 matrix with the two vectors as columns."""
        return np.column_stack([self.u1, self.u2])


# Block Lanczos sizes for top2_svd: the basis holds at most LANCZOS_BASIS
# columns (blocks of two); a thick restart then keeps the LANCZOS_KEEP
# leading Ritz vectors. The basis and its products cost O(n * LANCZOS_BASIS).
LANCZOS_BASIS = 64
LANCZOS_KEEP = 16
# A new basis column left with less than this share of the norm of its
# operator product after orthogonalisation is a breakdown: the Krylov space
# is invariant (or fills the whole space) up to rounding, and the column is
# replaced by a seeded random direction.
BREAKDOWN = 1e-13


def _next_block(W: np.ndarray, ref: np.ndarray, V: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Two orthonormal columns spanning W, orthogonal to the orthonormal columns of V.

    The caller has projected V out of W once; one more pass over the block
    and two within it make classical Gram-Schmidt applied twice. A column
    left with at most ``BREAKDOWN`` of its reference norm ``ref`` is replaced
    by a Gaussian draw from ``rng``, projected the same way.
    """
    W = W - V @ (V.T @ W)
    X = np.empty_like(W)
    for j in range(2):
        w, floor = W[:, j], BREAKDOWN * ref[j]
        while True:
            for _ in range(2):
                w = w - X[:, :j] @ (X[:, :j].T @ w)
            norm = np.linalg.norm(w)
            if norm > floor:
                break
            w = rng.standard_normal(W.shape[0])
            floor = BREAKDOWN * np.linalg.norm(w)
            for _ in range(2):
                w = w - V @ (V.T @ w)
        X[:, j] = w / norm
    return X


def top2_svd(H: SkewSparseMatrix, tol: float = 1e-10, max_iter: int = 2000,
             seed: int = 0) -> SpectralPair:
    """Dominant singular pair of H by restarted block Lanczos on -H^2.

    The symmetric PSD operator x -> -H(Hx) is applied to blocks of size 2:
    the top singular value of a skew-symmetric matrix always has
    multiplicity two, so a single Krylov vector cannot resolve it. Each
    iteration applies the operator to the newest block (four matvecs),
    stores the products beside the basis, and takes the top two Ritz pairs
    of the basis (Rayleigh-Ritz); their residuals follow from the part of
    the new products outside the basis, which, orthogonalised against the
    whole basis (full reorthogonalisation), is the next block. When
    the basis would exceed ``LANCZOS_BASIS`` columns (or n), a thick restart
    shrinks it to its ``LANCZOS_KEEP`` leading Ritz vectors, whose products
    are the same combinations of the stored ones, so no matvec is spent on
    it. Converged when the relative residual ||(-H^2)v - lambda v|| / lambda
    is at most ``tol`` for both Ritz vectors.

    The starting block is seeded Gaussian, so runs are reproducible.
    ``sigma3`` is the square root of the third Ritz value, a lower bound on
    the third singular value (nan while the basis has two columns). Raises
    DegenerateSpectrum for a numerically zero matrix and NotConverged
    (carrying the partial result) when ``max_iter`` is exhausted.
    """
    if H.n < 2:
        raise InvalidParam("need n >= 2")
    if tol <= 0 or max_iter < 1:
        raise InvalidParam("tol must be positive and max_iter >= 1")
    scale = H.max_abs
    if scale == 0.0:
        raise DegenerateSpectrum("matrix has no nonzero entries")

    rng = np.random.default_rng(seed)
    X, _ = np.linalg.qr(rng.standard_normal((H.n, 2)))
    cap = min(LANCZOS_BASIS, H.n)
    V = np.empty((H.n, cap), order="F")  # orthonormal basis
    AV = np.empty((H.n, cap), order="F")  # (-H^2) V
    T = np.empty((cap, cap))  # V^T (-H^2) V
    floor_min = max(tol * (scale * H.n) ** 2, np.finfo(float).tiny)

    def rel_residual(R, theta):
        return max(np.linalg.norm(R[:, 0]), np.linalg.norm(R[:, 1])) / max(theta[1], floor_min)

    k = 0
    for sweep in range(1, max_iter + 1):
        Z = np.column_stack([-H.matvec(H.matvec(X[:, 0])),
                             -H.matvec(H.matvec(X[:, 1]))])
        V[:, k:k + 2], AV[:, k:k + 2] = X, Z
        k += 2
        C = V[:, :k].T @ Z
        C[-2:] = 0.5 * (C[-2:] + C[-2:].T)
        T[:k, k - 2:k] = C
        T[k - 2:k, :k] = C.T
        theta, Y = np.linalg.eigh(T[:k, :k])
        theta, Y = theta[::-1], Y[:, ::-1]
        # (-H^2) V = V T + W E^T with E selecting the newest block, so the
        # Ritz residuals are W times the last two rows of Y. Once that
        # estimate passes, the residual is measured directly.
        W = Z - V[:, :k] @ C
        if sweep == max_iter or rel_residual(W @ Y[-2:, :2], theta) <= tol:
            U = V[:, :k] @ Y[:, :2]
            residual = rel_residual(AV[:, :k] @ Y[:, :2] - U * theta[:2], theta)
            if residual <= tol or sweep == max_iter:
                break
        if k + 2 > cap:  # thick restart onto the leading Ritz vectors
            keep = min(LANCZOS_KEEP, cap - 2)
            V[:, :keep] = V[:, :k] @ Y[:, :keep]
            AV[:, :keep] = AV[:, :k] @ Y[:, :keep]
            T[:keep, :keep] = np.diag(theta[:keep])
            k = keep
        X = _next_block(W, np.linalg.norm(Z, axis=0), V[:, :k], rng)
    sigma = np.sqrt(np.clip(theta[:3], 0.0, None))
    pair = SpectralPair(u1=U[:, 0], u2=U[:, 1], sigma1=float(sigma[0]),
                        sigma2=float(sigma[1]),
                        sigma3=float(sigma[2]) if sigma.size > 2 else float("nan"),
                        iterations=sweep, residual=float(residual))
    if pair.sigma1 <= tol * scale * H.n:
        raise DegenerateSpectrum("top singular value is numerically zero")
    if residual > tol:
        raise NotConverged(f"block Lanczos stalled at residual {residual:.3e}",
                           result=pair, residual=float(residual), iterations=sweep)
    return pair


def project_onto_span(v: np.ndarray, basis: SpectralPair) -> np.ndarray:
    """Orthogonal projection U U^T v onto span{u1, u2}."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != basis.u1.shape:
        raise DimensionMismatch("vector length does not match basis")
    U = basis.basis
    return U @ (U.T @ v)


def orthonormal_complement_in_span(u_bar: np.ndarray, basis: SpectralPair) -> np.ndarray:
    """Unit vector inside span{u1, u2} orthogonal to ``u_bar``.

    ``u_bar`` must already lie in the span (it normally is a projection onto
    it). The overall sign of the result is arbitrary; callers resolve it
    downstream. Raises ZeroProjection when ``u_bar`` is numerically zero,
    which signals that the projected direction is orthogonal to the
    recovered subspace and the spectral estimate is unusable.
    """
    u_bar = np.asarray(u_bar, dtype=np.float64)
    if u_bar.shape != basis.u1.shape:
        raise DimensionMismatch("vector length does not match basis")
    norm = np.linalg.norm(u_bar)
    if norm <= 1e-12:
        raise ZeroProjection("projection of the reference direction is numerically zero")
    a = float(basis.u1 @ u_bar)
    b = float(basis.u2 @ u_bar)
    in_span = np.hypot(a, b)
    if np.linalg.norm(u_bar - (a * basis.u1 + b * basis.u2)) > 1e-8 * norm:
        raise InvalidParam("u_bar does not lie in the spanned subspace")
    return (-b * basis.u1 + a * basis.u2) / in_span


def component_labels(H: SkewSparseMatrix) -> np.ndarray:
    """Connected-component label per node of H's graph, numbered by smallest node.

    Each round hooks the larger root of every edge's ends under the smaller
    one and jumps pointers until each node points at its root, so a
    component ends rooted at its smallest node.
    """
    parent = np.arange(H.n)
    rows, cols = H.rows, H.cols
    while rows.size:
        a, b = parent[rows], parent[cols]
        apart = a != b
        rows, cols, a, b = rows[apart], cols[apart], a[apart], b[apart]
        # Both orientations in one pass: each root takes its smallest neighbour root.
        np.minimum.at(parent, np.concatenate([a, b]), np.concatenate([b, a]))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return np.unique(parent, return_inverse=True)[1]
