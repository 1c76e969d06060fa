"""Closed-form error-bound evaluators and model statistics for the spectral pipelines.

These implement the finite-sample guarantees attached to the outliers
measurement model: a spectral-norm level for the noise matrix, l2 /
l-infinity bounds for the recovered in-span direction, the induced
maximum-displacement rank bound, and score-recovery bounds for both the
plain and the degree-normalized pipeline. Beside them sit the statistics
of the true scores that the bounds and the sweep's ``theory`` columns
read: the target directions ``u2_true`` and ``u2_true_nrs``, the expected
absolute degrees, and the ``coherence`` that ``svdrank bounds`` prints.
They only evaluate formulas; nothing here is needed by the recovery
algorithms themselves.

Two universal constants in the l-infinity chain are never pinned by the
analysis; they are set to ``PLACEHOLDER_CONSTANT`` = 1.0 here, so
l-infinity numbers support qualitative (scaling, monotonicity) comparisons
only. Evaluators return a bound's right-hand side whether or not its
hypothesis holds; the ``*_precondition(s)_hold`` predicates say whether it
does, and callers report the two side by side.

Everything consumes the model parameters (p, eta, the true scores), which
are only available in synthetic experiments; none of this applies to real
data, where those quantities are unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import center
from .errors import DegenerateScores, InvalidParam, ZeroGap
from .model import ScoreVector

PLACEHOLDER_CONSTANT = 1.0
# Tail exponents of the l-infinity chain: xi > 1 and 0 < kappa < 1.
XI = 2.0
KAPPA = 0.5


def _deviation(values: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """The deviation ``values - alpha`` and its l2 norm.

    Raises DegenerateScores when the norm is at roundoff level, at most
    1e-12 (max |r| + 1) sqrt(n), for then the scores are equal.
    """
    dev = values - alpha
    norm = float(np.linalg.norm(dev))
    if norm <= 1e-12 * (float(np.abs(values).max()) + 1.0) * np.sqrt(values.size):
        raise DegenerateScores("all scores are equal")
    return dev, norm


@dataclass(frozen=True)
class BoundParams:
    """Free parameters of the probabilistic guarantees.

    epsilon enters the spectral-norm level. The l-infinity tail exponents
    are the module constants ``XI`` and ``KAPPA``.
    """

    epsilon: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.5:
            raise InvalidParam("epsilon must lie in (0, 1/2]")


@dataclass(frozen=True)
class ModelStats:
    """Model quantities entering the plain-pipeline bounds."""

    n: int
    p: float
    eta: float
    M: float
    alpha: float
    dev_norm: float
    rho: float

    @classmethod
    def from_scores(cls, scores: ScoreVector, p: float, eta: float) -> "ModelStats":
        values = scores.values
        alpha = float(values.mean())
        _, dev = _deviation(values, alpha)
        gaps = np.diff(np.sort(values))
        return cls(n=scores.n, p=p, eta=eta, M=scores.M, alpha=alpha,
                   dev_norm=dev, rho=float(gaps.min()))


@dataclass(frozen=True)
class NRSStats:
    """Model quantities entering the degree-normalized-pipeline bounds."""

    n: int
    p: float
    eta: float
    M: float
    alpha: float
    dev_norm: float
    lambda_max: float
    lambda_min: float
    A: float
    sigma_min: float
    sigma_max: float
    delta_tilde: float


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds keyed by name, with per-bound precondition flags."""

    values: dict[str, float]
    preconditions_ok: dict[str, bool]


def pair_abs_sums(values: np.ndarray) -> np.ndarray:
    """S_i = sum_j |values_i - values_j| for every i, via sorting."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    order = np.argsort(values, kind="stable")
    sorted_v = values[order]
    prefix = np.cumsum(sorted_v)
    k = np.arange(n)
    total = prefix[-1]
    sums_sorted = (sorted_v * k - np.concatenate([[0.0], prefix[:-1]])
                   + (total - prefix) - sorted_v * (n - 1 - k))
    out = np.empty(n)
    out[order] = sums_sorted
    return out


def delta_spectral(stats: ModelStats, params: BoundParams) -> float:
    """High-probability level for the spectral norm of the noise matrix."""
    return 8.0 * stats.M * math.sqrt((5.0 / 3.0) * stats.p * stats.n) * (2.0 + params.epsilon)


def _require_signal(p: float, eta: float) -> None:
    if eta <= 0 or p <= 0:
        raise InvalidParam("need eta > 0 and p > 0")


def l2_precondition_holds(stats: ModelStats, params: BoundParams) -> bool:
    _require_signal(stats.p, stats.eta)
    return stats.dev_norm >= ((24.0 * stats.M / stats.eta) * math.sqrt(5.0 / (3.0 * stats.p))
                              * (2.0 + params.epsilon))


def l2_bound_svdrs(stats: ModelStats, params: BoundParams) -> float:
    """Bound on the squared l2 error of the recovered in-span direction."""
    _require_signal(stats.p, stats.eta)
    return ((120.0 * stats.M / stats.eta) * math.sqrt(5.0 / (3.0 * stats.p))
            * (2.0 + params.epsilon) / stats.dev_norm)


def linf_preconditions_hold(stats: ModelStats, params: BoundParams) -> bool:
    n = stats.n
    if stats.p < max(1.0 / (2.0 * n), 2.0 * math.log(n) / (15.0 * n)):
        return False
    if 16.0 / KAPPA > math.log(n) ** XI:
        return False
    return l2_precondition_holds(stats, params)


def linf_C_svdrs(stats: ModelStats, params: BoundParams) -> tuple[float, float]:
    """The l-infinity driver term C(.) and the full direction bound.

    Returns (C, bound) with bound = 4 (2 + sqrt(2)) C + 4 sqrt(n) C^2. Uses
    the placeholder universal constant, so treat values qualitatively.
    """
    _require_signal(stats.p, stats.eta)
    n, M, eta, p, dev = stats.n, stats.M, stats.eta, stats.p, stats.dev_norm
    logn = math.log(n)
    spread = 1.0 / math.sqrt(n) + (M - stats.alpha) / dev
    c_val = PLACEHOLDER_CONSTANT * (
        (M * math.sqrt(logn) / (eta * math.sqrt(p) * dev)
         + M ** 2 * logn ** (2.0 * XI) / (eta ** 2 * p * dev ** 2)) * spread
        + M ** 3 / (eta ** 3 * p ** 1.5 * dev ** 3))
    bound = 4.0 * (2.0 + math.sqrt(2.0)) * c_val + 4.0 * math.sqrt(n) * c_val ** 2
    return c_val, bound


def rank_displacement_bound(stats: ModelStats, upsilon: float) -> float:
    """Maximum-displacement rank bound 4 ||r - alpha e|| Upsilon / rho."""
    if stats.rho <= 0.0:
        raise ZeroGap("scores contain ties; displacement bound undefined")
    return 4.0 * stats.dev_norm * upsilon / stats.rho


def score_bounds_svdrs(stats: ModelStats, params: BoundParams) -> tuple[float, float]:
    """Score-recovery bounds (l2, linf) for the known-scale estimate."""
    c_val, _ = linf_C_svdrs(stats, params)  # raises InvalidParam unless eta, p > 0
    n, M, eta, p, dev = stats.n, stats.M, stats.eta, stats.p, stats.dev_norm
    eps2 = 2.0 + params.epsilon
    l2 = ((8.0 * M / eta) * math.sqrt(5.0 / (3.0 * p)) * eps2
          + math.sqrt(120.0 * M * eps2 * dev / (eta * math.sqrt(p))) * (5.0 / 3.0) ** 0.25)
    linf = ((16.0 / 3.0) * dev * ((2.0 + math.sqrt(2.0)) * c_val + math.sqrt(n) * c_val ** 2)
            + 8.0 * math.sqrt(5.0 / 3.0) * eps2 * M * (M - stats.alpha) / (eta * math.sqrt(p) * dev))
    return l2, linf


def _degree_rates(scores: ScoreVector, eta: float) -> np.ndarray:
    """Expected absolute degrees over p: eta S_i + (1 - eta) M / 2."""
    return eta * pair_abs_sums(scores.values) + (1.0 - eta) * scores.M / 2.0


def expected_abs_degrees(scores: ScoreVector, p: float, eta: float) -> np.ndarray:
    """Expected absolute-degree diagonal p (eta S_i + (1 - eta) M / 2)."""
    return p * _degree_rates(scores, eta)


def _weighted_centre(values: np.ndarray, degrees: np.ndarray) -> float:
    """The 1/d-weighted mean of the scores; DegenerateScores unless every degree d is positive."""
    if degrees.min() <= 0.0:
        raise DegenerateScores("expected degrees vanish")
    weights = 1.0 / degrees
    return float((values * weights).sum() / weights.sum())


def nrs_stats(scores: ScoreVector, p: float, eta: float,
              params: BoundParams) -> NRSStats:
    """All model quantities for the degree-normalized bounds."""
    _require_signal(p, eta)
    values = scores.values
    n, M = scores.n, scores.M
    rates = _degree_rates(scores, eta)
    lam_max, lam_min = float(rates.max()), float(rates.min())
    alpha = _weighted_centre(values, p * rates)
    _, dev = _deviation(values, alpha)
    A = eta * M ** 2 + (1.0 - eta) * M / 2.0
    sigma_min = eta * dev * math.sqrt(n) / lam_max
    sigma_max = eta * dev * math.sqrt(n) / lam_min
    c1 = 4.0 * A ** 0.25
    pl_min = p * lam_min
    quarter = (n * p * math.log(n)) ** 0.25
    delta_tilde = (16.0 * M * math.sqrt((5.0 / 3.0) * p * n) * (2.0 + params.epsilon) / pl_min
                   + c1 * quarter * sigma_max / pl_min ** 1.5
                   * (c1 * quarter / math.sqrt(pl_min) + 2.0 * math.sqrt(2.0)))
    return NRSStats(n=n, p=p, eta=eta, M=M, alpha=alpha, dev_norm=dev,
                    lambda_max=lam_max, lambda_min=lam_min, A=A,
                    sigma_min=sigma_min, sigma_max=sigma_max,
                    delta_tilde=delta_tilde)


def nrs_preconditions_hold(stats: NRSStats) -> bool:
    n, p = stats.n, stats.p
    logn = math.log(n)
    if p < stats.M ** 2 * logn / (9.0 * stats.A * n):
        return False
    if p < 16.0 * (math.sqrt(2.0) + 1.0) ** 2 * stats.A * n * logn / stats.lambda_min ** 2:
        return False
    return stats.delta_tilde <= stats.sigma_min / 3.0


def l2_bound_svdnrs(stats: NRSStats) -> float:
    """Bound 15 Delta~ / sigma_min on the squared direction error."""
    return 15.0 * stats.delta_tilde / stats.sigma_min


def score_l2_bound_svdnrs(stats: NRSStats) -> float:
    """Score-recovery l2 bound for the normalized known-scale estimate."""
    n, p, eta = stats.n, stats.p, stats.eta
    logn = math.log(n)
    quarter = (stats.A * n * p * logn) ** 0.25
    term1 = (math.sqrt(3.0 / n) * (stats.sigma_max + stats.delta_tilde)
             * (2.0 * math.sqrt(2.0) + 1.0) ** 0.5 * quarter
             * (math.sqrt(p * stats.lambda_max) + stats.lambda_max / stats.lambda_min))
    term2 = stats.delta_tilde * p * stats.lambda_max / math.sqrt(n)
    term3 = (math.sqrt(15.0 * stats.delta_tilde / (stats.sigma_min * n))
             * stats.sigma_max * p * stats.lambda_max)
    return (2.0 / (eta * p)) * (term1 + term2 + term3)


def evaluate_all_bounds(scores: ScoreVector, p: float, eta: float,
                        params: BoundParams) -> BoundReport:
    """Evaluate every closed-form bound at the given model parameters.

    Right-hand sides are always computed; each carries a flag saying whether
    its hypothesis actually holds there.
    """
    stats = ModelStats.from_scores(scores, p, eta)
    nstats = nrs_stats(scores, p, eta, params)
    c_val, upsilon = linf_C_svdrs(stats, params)
    score_l2, score_linf = score_bounds_svdrs(stats, params)
    l2_ok = l2_precondition_holds(stats, params)
    linf_ok = linf_preconditions_hold(stats, params)
    nrs_ok = nrs_preconditions_hold(nstats)
    table = {
        "noise_spectral_level": (delta_spectral(stats, params), True),
        "direction_l2_sq": (l2_bound_svdrs(stats, params), l2_ok),
        "direction_linf": (upsilon, linf_ok),
        "linf_driver_C": (c_val, linf_ok),
        "score_l2": (score_l2, l2_ok),
        "score_linf": (score_linf, linf_ok),
        "nrs_direction_l2_sq": (l2_bound_svdnrs(nstats), nrs_ok),
        "nrs_score_l2": (score_l2_bound_svdnrs(nstats), nrs_ok),
    }
    if stats.rho > 0:
        table["rank_max_displacement"] = (rank_displacement_bound(stats, upsilon), linf_ok)
    return BoundReport(values={name: value for name, (value, _) in table.items()},
                       preconditions_ok={name: ok for name, (_, ok) in table.items()})


def u2_true(scores: ScoreVector) -> np.ndarray:
    """Unit deviation direction (r - mean) / ||r - mean||."""
    dev, norm = _deviation(scores.values, scores.values.mean())
    return dev / norm


def u2_true_nrs(scores: ScoreVector, p: float, eta: float) -> np.ndarray:
    """Unit direction targeted by the normalized pipeline (expected degrees)."""
    d_exp = expected_abs_degrees(scores, p, eta)
    dev, _ = _deviation(scores.values, _weighted_centre(scores.values, d_exp))
    v = dev / np.sqrt(d_exp)
    return v / np.linalg.norm(v)


def coherence(r: ScoreVector) -> float:
    """Spread measure max{(M - mean) sqrt(n) / ||r - mean||_2, 1} of the scores.

    Small values mean the score deviations are delocalized, the favourable
    regime for completion from few samples.
    """
    alpha = float(r.values.mean())
    _, dev = _deviation(r.values, alpha)
    return max(float((r.M - alpha) * np.sqrt(r.n) / dev), 1.0)


def ideal_scale_scores(u_tilde: np.ndarray, sigma1: float, eta: float, p: float,
                       dbar: np.ndarray | None = None) -> np.ndarray:
    """Known-scale centered score estimate used by the score-recovery bounds.

    Plain variant: sigma1 / (eta p sqrt(n)) times the in-span direction,
    centered. With ``dbar`` (the absolute-degree diagonal), the normalized
    variant sigma1 / (eta p ||D^{-1/2} e||) D^{1/2} u_tilde, centered. This
    is a test-only helper: it consumes eta and p, which the recovery
    algorithms never see.
    """
    u_tilde = np.asarray(u_tilde, dtype=np.float64)
    _require_signal(p, eta)
    n = u_tilde.size
    if dbar is None:
        w = (sigma1 / (eta * p * math.sqrt(n))) * u_tilde
    else:
        dbar = np.asarray(dbar, dtype=np.float64)
        if dbar.shape != u_tilde.shape:
            raise InvalidParam("degree diagonal has wrong length")
        scale = sigma1 / (eta * p * np.linalg.norm(1.0 / np.sqrt(dbar)))
        w = scale * np.sqrt(dbar) * u_tilde
    return center(w)
