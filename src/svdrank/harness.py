"""Experiment sweeps, edge-list ingestion, and result emission.

Sweeps iterate a (p, gamma) grid with repeated trials. Every cell derives
its own random stream from the master seed through
``numpy.random.SeedSequence(seed, spawn_key=(p_index, gamma_index, trial))``,
so results do not depend on execution order and a rerun with the same
configuration reproduces the output byte for byte. Per-cell failures (for
example a disconnected draw at tiny p) are recorded in their rows and never
abort the sweep. Completion's size limit is a configuration error, not a
per-cell failure: it ends the sweep at its first cell.

``ResultRow``'s fields are the CSV columns in order, ``_METRICS`` maps each
simple metric to its function, and the configuration keys are the fields of
``ExperimentConfig`` and ``CompletionConfig``, read by their annotations.

Timing columns are kept out of the CSV unless explicitly requested, since
wall-clock values would break byte-level reproducibility.

Ingestion reads the edge list with one ``np.loadtxt`` pass and checks the
arrays; a file that pass cannot take (comment or whitespace-only lines,
quoted fields, a warning, a row that fails a check) goes to the line
parser, which keeps the accepted syntax and the line-numbered errors. Both
yield index and value arrays, and one tail sizes the matrix and leaves the
edge-list layout to ``SkewSparseMatrix.from_pairs``. Pruning uses its
``restrict`` and ``largest_component``, so connectivity is computed once.
"""

from __future__ import annotations

import csv
import logging
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .algorithms import RankingResult, ranking_from_scores, svd_nrs, svd_rs
from .baselines import (
    CompletionConfig,
    complete_matrix,
    least_squares_rank,
    rowsum_rank,
)
from .errors import (
    GraphDisconnectedWarning,
    InvalidParam,
    ParseError,
    SelfLoop,
    SvdRankError,
)
from .linalg import SkewSparseMatrix
from .metrics import (
    count_upsets,
    kendall_distance,
    max_displacement,
    pearson_correlation,
    rmse,
    weighted_upsets,
)
from .model import EROParams, ScoreVector, build_H, generate_ero, generate_scores
from .theory import BoundParams, ModelStats, l2_bound_svdrs, l2_precondition_holds, \
    l2_bound_svdnrs, nrs_preconditions_hold, nrs_stats, u2_true, u2_true_nrs

log = logging.getLogger(__name__)

ALGORITHMS = ("svd_rs", "svd_nrs", "rowsum", "least_squares")

# Each simple metric, in CSV column order, with the function computing it
# from (true permutation, true scores, measurement set, result).
_METRICS = {
    "kendall": lambda perm, truth, mset, res: float(kendall_distance(perm, res.permutation)),
    "kendall_norm": lambda perm, truth, mset, res: float(
        kendall_distance(perm, res.permutation, normalized=True)),
    "correlation": lambda perm, truth, mset, res: pearson_correlation(truth, res.score_estimate),
    "rmse": lambda perm, truth, mset, res: rmse(truth, res.score_estimate),
    "upsets": lambda perm, truth, mset, res: float(count_upsets(mset, res.score_estimate)),
    "weighted_upsets": lambda perm, truth, mset, res: weighted_upsets(mset, res.score_estimate),
    "max_displacement": lambda perm, truth, mset, res: float(
        max_displacement(perm, res.permutation)),
}
METRIC_NAMES = (*_METRICS, "theory")  # theory fills the four bound columns
DEFAULT_METRICS = ("kendall", "correlation", "rmse", "upsets", "weighted_upsets")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    p_grid: tuple[float, ...]
    gamma_grid: tuple[float, ...]
    trials: int = 20
    seed: int = 0
    scores: str = "uniform01"
    gamma_shape: float = 0.5
    gamma_scale: float = 1.0
    algorithms: tuple[str, ...] = ALGORITHMS
    completion: bool = False
    completion_cfg: CompletionConfig = field(default_factory=CompletionConfig)
    metrics: tuple[str, ...] = DEFAULT_METRICS
    epsilon: float = 0.5
    out: str = "results.csv"
    workers: int = 1
    include_timing: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParam("n must be >= 2")
        if not self.p_grid or not self.gamma_grid:
            raise InvalidParam("p_grid and gamma_grid must be nonempty")
        if any(not 0.0 <= p <= 1.0 for p in self.p_grid):
            raise InvalidParam("p values must lie in [0, 1]")
        if any(not 0.0 <= g <= 1.0 for g in self.gamma_grid):
            raise InvalidParam("gamma values must lie in [0, 1]")
        if any(len(set(grid)) < len(grid) for grid in (self.p_grid, self.gamma_grid)):
            raise InvalidParam("p_grid and gamma_grid values must not repeat")
        if self.trials < 1:
            raise InvalidParam("trials must be >= 1")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown or not self.algorithms:
            raise InvalidParam(f"unknown algorithms: {sorted(unknown)}")
        unknown = set(self.metrics) - set(METRIC_NAMES)
        if unknown:
            raise InvalidParam(f"unknown metrics: {sorted(unknown)}")
        if self.scores not in ("uniform01", "gamma", "linear"):
            raise InvalidParam(f"unknown score kind {self.scores!r}")
        if self.workers < 1:
            raise InvalidParam("workers must be >= 1")
        BoundParams(epsilon=self.epsilon)


@dataclass(kw_only=True)
class ResultRow:
    agg: int = 0
    stat: str = ""
    algorithm: str
    n: int
    p: float | None = None
    gamma: float | None = None
    trial: int | None = None
    trials_ok: int | None = None
    kendall: float | None = None
    kendall_norm: float | None = None
    correlation: float | None = None
    rmse: float | None = None
    upsets: float | None = None
    weighted_upsets: float | None = None
    max_displacement: float | None = None
    u2_sq_err: float | None = None
    u2_sq_bound: float | None = None
    bound_precond_ok: int | None = None
    bound_contained: int | None = None
    runtime_ms: float | None = None
    error: str = ""


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".12g")
    return str(value)


def write_csv(rows: list[ResultRow], path: str, include_timing: bool = False) -> None:
    columns = [c for c in CSV_COLUMNS if include_timing or c != "runtime_ms"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col)) for col in columns])


def _run_algorithm(name: str, H: SkewSparseMatrix, seed: int,
                   scale_from: SkewSparseMatrix | None) -> RankingResult:
    if name == "svd_rs":
        return svd_rs(H, seed=seed, scale_from=scale_from)
    if name == "svd_nrs":
        return svd_nrs(H, seed=seed, scale_from=scale_from)
    if name == "rowsum":
        return rowsum_rank(H)
    if name == "least_squares":
        return least_squares_rank(H)
    raise InvalidParam(f"unknown algorithm {name!r}")


def complete_and_rank(m: SkewSparseMatrix, algorithms: tuple[str, ...],
                      completion: CompletionConfig | None,
                      seed: int) -> list[tuple[str, RankingResult | SvdRankError, float]]:
    """Run each algorithm on a measurement set, after completing it if asked.

    Returns, per algorithm in the order asked for, its name, its ranking or
    the error it raised, and its run time in milliseconds; one algorithm's
    failure never hides the other results. A completion error (a matrix past
    the dense size limit, or a completed matrix past the value range)
    raises before any algorithm runs. With a completion config the
    algorithms rank the completed matrix. Only
    ``svd_rs`` and ``svd_nrs`` take sign and scale from the observed pairs;
    ``rowsum`` and ``least_squares`` report ``tau`` against the completed
    matrix they rank.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GraphDisconnectedWarning)
        H = build_H(m)
    H_run, scale_from = H, None
    if completion is not None:
        H_run, scale_from = complete_matrix(H, completion).to_sparse(), H
    results = []
    for name in algorithms:
        start = time.perf_counter()
        try:
            result = _run_algorithm(name, H_run, seed, scale_from)
        except SvdRankError as exc:
            result = exc
        results.append((name, result, (time.perf_counter() - start) * 1e3))
    return results


def _set_error(row: ResultRow, exc: SvdRankError) -> None:
    row.error = f"{type(exc).__name__}: {exc}"


def _theory_columns(row: ResultRow, result: RankingResult, scores: ScoreVector,
                    p: float, eta: float, epsilon: float) -> None:
    params = BoundParams(epsilon=epsilon)
    if result.method == "svd_rs":
        target = u2_true(scores)
        stats = ModelStats.from_scores(scores, p, eta)
        bound = l2_bound_svdrs(stats, params)
        precond = l2_precondition_holds(stats, params)
    elif result.method == "svd_nrs":
        target = u2_true_nrs(scores, p, eta)
        stats = nrs_stats(scores, p, eta, params)
        bound = l2_bound_svdnrs(stats)
        precond = nrs_preconditions_hold(stats)
    else:
        return
    direction = result.direction
    err = min(float(np.sum((direction - target) ** 2)),
              float(np.sum((direction + target) ** 2)))
    row.u2_sq_err = err
    row.u2_sq_bound = bound
    row.bound_precond_ok = int(precond)
    row.bound_contained = int(err <= bound)


def _run_cell(cfg: ExperimentConfig, p_idx: int, g_idx: int, trial: int) -> list[ResultRow]:
    p = cfg.p_grid[p_idx]
    gamma = cfg.gamma_grid[g_idx]
    eta = 1.0 - gamma
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(p_idx, g_idx, trial))
    score_seed, ero_seed, algo_seed = (int(s) for s in seq.generate_state(3))
    scores = generate_scores(cfg.scores, cfg.n, seed=score_seed,
                             a=cfg.gamma_shape, b=cfg.gamma_scale)
    mset = generate_ero(scores, EROParams(n=cfg.n, p=p, eta=eta, seed=ero_seed))
    results = complete_and_rank(mset, cfg.algorithms,
                                cfg.completion_cfg if cfg.completion else None, algo_seed)
    true_perm = ranking_from_scores(scores.values)
    rows = []
    for name, result, runtime_ms in results:
        row = ResultRow(algorithm=name, n=cfg.n, p=p, gamma=gamma, trial=trial)
        rows.append(row)
        if isinstance(result, SvdRankError):
            _set_error(row, result)
            continue
        row.runtime_ms = runtime_ms
        try:
            for metric, compute in _METRICS.items():
                if metric in cfg.metrics:
                    setattr(row, metric, compute(true_perm, scores.values, mset, result))
            if "theory" in cfg.metrics and eta > 0 and p > 0:
                _theory_columns(row, result, scores, p, eta, cfg.epsilon)
        except SvdRankError as exc:
            _set_error(row, exc)
    return rows


def _aggregate(rows: list[ResultRow], cfg: ExperimentConfig) -> list[ResultRow]:
    ok: dict[tuple, list[ResultRow]] = {}
    for r in rows:
        if not r.error:
            ok.setdefault((r.p, r.gamma, r.algorithm), []).append(r)
    out = []
    for p in cfg.p_grid:
        for gamma in cfg.gamma_grid:
            for name in cfg.algorithms:
                group = ok.get((p, gamma, name), [])
                for stat, fn in (("mean", np.mean), ("std", np.std)):
                    agg = ResultRow(algorithm=name, n=cfg.n, p=p, gamma=gamma,
                                    agg=1, stat=stat, trials_ok=len(group))
                    for metric in (*_METRICS, "u2_sq_err", "u2_sq_bound"):
                        vals = [getattr(r, metric) for r in group
                                if getattr(r, metric) is not None]
                        if vals:
                            setattr(agg, metric, float(fn(vals)))
                    out.append(agg)
    return out


def run_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run the full (p, gamma, trial) grid and return raw plus aggregate rows.

    Deterministic for a given configuration regardless of worker count; raw
    rows are ordered by (p, gamma, trial, algorithm) and aggregate rows
    (flagged ``agg=1``) follow.
    """
    cells = [(pi, gi, t)
             for pi in range(len(cfg.p_grid))
             for gi in range(len(cfg.gamma_grid))
             for t in range(cfg.trials)]
    # A fork pool starts all its workers at the first submit: start no more than there are cells.
    workers = min(cfg.workers, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_cell, [cfg] * len(cells), *zip(*cells)))
    else:
        chunks = [_run_cell(cfg, *c) for c in cells]
    rows = [row for chunk in chunks for row in chunk]
    rows.extend(_aggregate(rows, cfg))
    return rows


def ingest_edge_list(path: str, one_indexed: bool = False,
                     n: int | None = None) -> SkewSparseMatrix:
    """Read rows ``i,j,value`` into a measurement set.

    Reversed orientations fold antisymmetrically ((j, i, v) counts as
    (i, j, -v)) and duplicate pairs are summed, which matches how repeated
    matches accumulate point differences. Self-loops are rejected. The item
    count is inferred from the largest index unless given.

    The file is read in one ``np.loadtxt`` pass; a file that pass cannot
    accept goes through the line parser, which accepts it or raises the
    error of its first bad line, with that line's number.
    """
    edges = _load_edges(path, one_indexed)
    if edges is None:
        edges = _parse_edge_lines(path, one_indexed)
    i, j, v = edges
    max_idx = int(max(i.max(), j.max())) if i.size else -1
    size = n if n is not None else max_idx + 1
    if size < 2:
        raise InvalidParam("edge list defines fewer than 2 nodes")
    if max_idx >= size:
        raise InvalidParam(f"index {max_idx} out of range for n={size}")
    return SkewSparseMatrix.from_pairs(size, i, j, v)


_Edges = tuple[np.ndarray, np.ndarray, np.ndarray]  # indices i, j and values v, one per row
_EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
_INT64_MAX = int(np.iinfo(np.int64).max)


def _load_edges(path: str, one_indexed: bool) -> _Edges | None:
    """Index and value arrays of the edge list, or None if the line parser must read it.

    A row loadtxt accepts here is one the line parser accepts with the same
    numbers. loadtxt raises on comment and whitespace-only lines, quoted
    fields and over-long integers; it warns on an empty file and, before
    numpy 2.0, on a float read as an integer, so a warning counts as a
    failure too. A failed check or a file that cannot be opened also goes to
    the line parser, which raises the error with its line number or the
    error ``open`` gives.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=1,
                              encoding="utf-8", dtype=_EDGE_ROW)
    except (OSError, ValueError, Warning):
        return None
    i, j, v = rows["i"], rows["j"], rows["v"]
    lowest = 1 if one_indexed else 0  # checked before the shift, which could wrap
    if (i < lowest).any() or (j < lowest).any() or (i == j).any() or not np.isfinite(v).all():
        return None
    if one_indexed:
        i, j = i - 1, j - 1
    return i, j, v


def _parse_edge_lines(path: str, one_indexed: bool) -> _Edges:
    """Index and value arrays of the edge list, read and checked one CSV line at a time.

    Blank, whitespace-only and ``#`` comment lines are skipped, fields may
    be quoted, and indices and values take Python's ``int`` and ``float``
    syntax. The first bad line raises ParseError or SelfLoop with its line
    number.
    """
    ii, jj, vv = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for raw in reader:
            lineno = reader.line_num  # the record's last physical line
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if raw[0].lstrip().startswith("#"):
                continue
            if len(raw) != 3:
                raise ParseError(f"expected 3 fields, got {len(raw)}", lineno)
            try:
                i, j = int(raw[0]), int(raw[1])
                value = float(raw[2])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            if one_indexed:
                i, j = i - 1, j - 1
            if i < 0 or j < 0:
                raise ParseError("negative index", lineno)
            if i == j:
                raise SelfLoop(f"self-loop on node {i}", lineno)
            if not math.isfinite(value):
                raise ParseError("non-finite value", lineno)
            if max(i, j) > _INT64_MAX:
                raise ParseError("index does not fit in a 64-bit integer", lineno)
            ii.append(i)
            jj.append(j)
            vv.append(value)
    return (np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64),
            np.array(vv, dtype=np.float64))


def prune_and_restrict(m: SkewSparseMatrix,
                       min_degree: int = 0) -> tuple[SkewSparseMatrix, np.ndarray]:
    """Drop low-degree nodes, then keep the largest connected component.

    Returns the reindexed measurement set, which knows it is connected, and
    the array mapping new index to original node id.

    When n > 2m some node is in no entry. Untouched nodes are isolated and
    alike, so the touched nodes and the smallest untouched one (which wins a
    tie between single-node components) stand for the graph, renumbered in
    order in O(m) before any array of length n exists; the log counts the
    others as well, so they read as for the whole graph.
    """
    n = m.n
    ids = None
    if n > 2 * m.num_entries:
        ids = _touched_and_first_untouched(m)
        m = SkewSparseMatrix(ids.size, np.searchsorted(ids, m.rows),
                             np.searchsorted(ids, m.cols), m.values)
    degree = np.bincount(m.rows, minlength=m.n) + np.bincount(m.cols, minlength=m.n)
    keep = degree >= min_degree
    # The n - m.n nodes left out of m have degree 0, like the one kept for them.
    survivors = int(np.count_nonzero(keep)) + (n - m.n if min_degree <= 0 else 0)
    if survivors < n:
        log.warning("pruning %d nodes with degree < %d", n - survivors, min_degree)
    if not survivors:
        raise InvalidParam("no nodes survive pruning")
    kept = m if keep.all() else m.restrict(keep)
    main, largest = kept.largest_component()
    if main.n < survivors:
        log.warning("graph disconnected after pruning; keeping largest component "
                    "(%d of %d nodes)", main.n, survivors)
    mapping = np.flatnonzero(keep)[largest]
    return main, mapping if ids is None else ids[mapping]


def _touched_and_first_untouched(m: SkewSparseMatrix) -> np.ndarray:
    """Sorted ids of the nodes in some entry of m, with the smallest node in none added.

    Needs n > 2m, so that some node is in no entry.
    """
    touched = np.unique(np.concatenate([m.rows, m.cols]))
    gaps = np.flatnonzero(touched != np.arange(touched.size))
    first = int(gaps[0]) if gaps.size else touched.size
    return np.insert(touched, first, first)


def _flag(value: str) -> bool:
    if value.lower() in ("on", "true", "1", "yes"):
        return True
    if value.lower() in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"bad flag {value!r}")


# One reader per field annotation; annotations are strings (postponed evaluation).
_READERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _flag,
    "tuple[float, ...]": lambda value: tuple(float(v) for v in value.split(",")),
    "tuple[str, ...]": lambda value: tuple(v.strip() for v in value.split(",") if v.strip()),
}
# Every ExperimentConfig field but completion_cfg is a key, and so is each
# CompletionConfig field, prefixed with ``completion_``.
_CONFIG_KEYS = {
    **{f.name: _READERS[f.type] for f in fields(ExperimentConfig) if f.name != "completion_cfg"},
    **{f"completion_{f.name}": _READERS[f.type] for f in fields(CompletionConfig)},
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` sweep-configuration format.

    Lines are ``key = value`` with ``#`` comments; list values are
    comma-separated. Unknown keys are an error and are listed explicitly.
    """
    raw: dict[str, str] = {}
    unknown = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidParam(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            unknown.append(key)
            continue
        if key in raw:
            raise InvalidParam(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    if unknown:
        raise InvalidParam(f"unknown configuration keys: {', '.join(sorted(unknown))}")

    parsed = {}
    for key, value in raw.items():
        try:
            parsed[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise InvalidParam(f"key {key!r}: {exc}") from exc
    if "n" not in parsed or "p_grid" not in parsed or "gamma_grid" not in parsed:
        raise InvalidParam("config requires at least: n, p_grid, gamma_grid")
    comp_kwargs = {key.removeprefix("completion_"): parsed.pop(key)
                   for key in list(parsed) if key.startswith("completion_")}
    if comp_kwargs:
        parsed["completion_cfg"] = CompletionConfig(**comp_kwargs)
    return ExperimentConfig(**parsed)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())
