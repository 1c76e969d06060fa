"""Synthetic measurement generation and measurement-matrix assembly.

A measurement set is the edge list {i < j, value} of observed offsets, held
in :class:`~svdrank.linalg.SkewSparseMatrix`: that one type validates the
edges once, is unchanged the skew-symmetric measurement matrix H and alone
knows the layout (``from_pairs``, ``offsets``, ``node_sums``, ``restrict``).

Measurements follow an outliers model on an Erdos-Renyi graph: each of the
n(n-1)/2 unordered pairs is observed independently with probability p, and
an observed pair {i, j} carries the true difference r_i - r_j with
probability eta, otherwise an independent uniform draw on [-M, M] where M is
the largest score. The noise level is gamma = 1 - eta. None of p, eta, M is
ever passed to the recovery algorithms.

Randomness uses numpy's seeded default generator (PCG64). For one instance
the draw order is fixed: edge-presence uniforms for all pairs in row-major
upper-triangle order, then inlier/outlier uniforms for the present edges,
then the outlier values. Experiment harnesses derive independent per-trial
streams by spawning from a master ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GraphDisconnectedWarning, InvalidParam
from .linalg import SkewSparseMatrix


@dataclass(frozen=True)
class ScoreVector:
    """Nonnegative latent scores; M is the largest entry."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 2:
            raise InvalidParam("scores must be a vector of length >= 2")
        if not np.all(np.isfinite(values)) or values.min() < 0:
            raise InvalidParam("scores must be finite and nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def M(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class EROParams:
    n: int
    p: float
    eta: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParam("n must be >= 2")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidParam("p must lie in [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise InvalidParam("eta must lie in [0, 1]")


def generate_scores(kind: str, n: int, seed: int = 0, a: float = 0.5,
                    b: float = 1.0) -> ScoreVector:
    """Draw a score vector: 'uniform01', 'gamma' (shape a, scale b) or 'linear'.

    The linear kind is deterministic with r_i = i + 1 for i = 0..n-1; the
    others are i.i.d. draws, deterministic given the seed.
    """
    if n < 2:
        raise InvalidParam("n must be >= 2")
    rng = np.random.default_rng(seed)
    if kind == "uniform01":
        values = rng.random(n)
    elif kind == "gamma":
        if a <= 0 or b <= 0:
            raise InvalidParam("gamma parameters must be positive")
        values = rng.gamma(shape=a, scale=b, size=n)
    elif kind == "linear":
        values = np.arange(1, n + 1, dtype=np.float64)
    else:
        raise InvalidParam(f"unknown score kind {kind!r}")
    return ScoreVector(values)


def generate_ero(r: ScoreVector, params: EROParams) -> SkewSparseMatrix:
    """Sample one measurement set from the outliers model.

    Each unordered pair is present with probability p; a present pair
    carries r_i - r_j with probability eta and otherwise an independent
    U[-M, M] outlier with M = max_i r_i.
    """
    if r.n != params.n:
        raise InvalidParam("score vector and parameter n disagree")
    n = params.n
    rng = np.random.default_rng(params.seed)
    iu, ju = np.triu_indices(n, 1)
    present = rng.random(iu.size) < params.p
    i, j = iu[present], ju[present]
    inlier = rng.random(i.size) < params.eta
    values = r.values[i] - r.values[j]
    outliers = int(np.count_nonzero(~inlier))
    if outliers:
        values[~inlier] = rng.uniform(-r.M, r.M, size=outliers)
    return SkewSparseMatrix(n=n, rows=i, cols=j, values=values)


def build_H(m: SkewSparseMatrix) -> SkewSparseMatrix:
    """Return the skew-symmetric measurement matrix of an edge list.

    The measurement set already is that matrix, so it is returned as is,
    with its connectivity computed once and cached for the algorithms.
    Emits GraphDisconnectedWarning when the measurement graph is not
    connected; scores can then only be recovered within components.
    """
    if not m.is_connected:
        warnings.warn("measurement graph is disconnected", GraphDisconnectedWarning,
                      stacklevel=2)
    return m
