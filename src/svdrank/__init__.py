"""Spectral ranking and synchronization from pairwise difference measurements.

Recovers latent scores (up to a global shift) and the induced ranking of n
items from a sparse, noisy set of pairwise offsets r_i - r_j, via the top-2
singular subspace of the skew-symmetric measurement matrix. Includes a
degree-normalized variant, row-sum and least-squares baselines, nuclear-norm
matrix completion preprocessing, evaluation metrics, theoretical-bound
evaluators, and a reproducible experiment harness with a CLI.
"""

from .algorithms import (
    RankingResult,
    center,
    compute_ratio_entries,
    ranking_from_scores,
    reconcile_sign,
    recover_scale_ls,
    recover_scale_median,
    svd_nrs,
    svd_rs,
)
from .baselines import (
    CompletionConfig,
    CompletionResult,
    complete_matrix,
    least_squares_rank,
    rowsum_rank,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    ingest_edge_list,
    load_config,
    run_sweep,
    write_csv,
)
from .linalg import (
    SkewSparseMatrix,
    SpectralPair,
    orthonormal_complement_in_span,
    top2_svd,
)
from .metrics import (
    count_upsets,
    kendall_distance,
    max_displacement,
    pearson_correlation,
    rmse,
    weighted_upsets,
)
from .model import (
    EROParams,
    ScoreVector,
    build_H,
    generate_ero,
    generate_scores,
)
from .theory import (
    BoundParams,
    BoundReport,
    ModelStats,
    NRSStats,
    coherence,
    delta_spectral,
    ideal_scale_scores,
    l2_bound_svdnrs,
    l2_bound_svdrs,
    linf_C_svdrs,
    nrs_stats,
    rank_displacement_bound,
    score_bounds_svdrs,
    score_l2_bound_svdnrs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
