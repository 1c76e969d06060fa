"""The benchmark's workloads: seeded inputs, one call per item, output checks.

Every workload turns a workload seed into a fixed list of items (one pass).
``setup`` builds that list and warms the code path up on a small input;
``run`` makes the one timed call into svdrank for an item; ``check`` reads
the item's output and reports what the benchmark measures from it, plus
any output that is wrong. Calls go through module attributes at call time
(``harness.run_sweep``, ``cli.main``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.stats import kendalltau

from svdrank import cli, harness
from svdrank.harness import ExperimentConfig

ALL_ALGORITHMS = ("svd_rs", "svd_nrs", "rowsum", "least_squares")
# The warm-up input is the same for every workload seed, so set-up time does
# not vary with the seed.
WARM_SEED = 0
WRITE_ROWS = 65536  # CSV rows formatted per write


@dataclass
class Outcome:
    """What the benchmark read from one item's output."""

    attempted: int  # (algorithm, item) results asked for
    solved: int  # results that returned a ranking; the rest failed
    # Per solved result: share of item pairs ordered as the generated truth
    # orders them (1 - normalized Kendall distance).
    accuracy: list[float]
    signature: object  # output that must repeat exactly whenever the item runs
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # exception names of failed results
    completed: bool = True  # False when the call gave no output (a non-zero CLI exit)


def _item_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass(frozen=True)
class SweepWorkload:
    """Items are one-cell ``run_sweep`` configurations, cycling over ``gammas``.

    Items with gamma 0 must rank exactly: Kendall distance 0 for every
    algorithm, with no failures. The warm-up cell is clean (gamma 0).
    """

    items_per_pass: int
    n: int
    p: float
    gammas: tuple[float, ...]
    algorithms: tuple[str, ...]
    metrics: tuple[str, ...]
    completion: bool
    warm_n: int
    warm_p: float

    def _config(self, n: int, p: float, gamma: float, seed: int) -> ExperimentConfig:
        return ExperimentConfig(n=n, p_grid=(p,), gamma_grid=(gamma,), trials=1, seed=seed,
                                algorithms=self.algorithms, metrics=self.metrics,
                                completion=self.completion, workers=1)

    def setup(self, seed: int, workdir: str) -> list[ExperimentConfig]:
        items = [self._config(self.n, self.p, self.gammas[k % len(self.gammas)], s)
                 for k, s in enumerate(_item_seeds(seed, self.items_per_pass))]
        self.run(self._config(self.warm_n, self.warm_p, 0.0, WARM_SEED))
        return items

    def run(self, item: ExperimentConfig):
        return harness.run_sweep(item)

    def check(self, item: ExperimentConfig, rows) -> Outcome:
        raw = [r for r in rows if not r.agg]
        pairs = item.n * (item.n - 1) / 2
        out = Outcome(attempted=len(item.algorithms), solved=0, accuracy=[],
                      signature=tuple((r.algorithm, r.kendall, r.upsets, r.max_displacement,
                                       r.error) for r in raw))
        if [r.algorithm for r in raw] != list(item.algorithms):
            out.problems.append(f"raw rows {[r.algorithm for r in raw]} do not match "
                                f"the algorithms asked for {list(item.algorithms)}")
        for r in raw:
            if r.error:
                out.errors.append(r.error.split(":", 1)[0])
                continue
            if r.kendall is None or not 0 <= r.kendall <= pairs:
                out.problems.append(f"{r.algorithm}: no error and Kendall {r.kendall}")
                continue
            out.solved += 1
            out.accuracy.append(1.0 - r.kendall / pairs)
            if "upsets" in item.metrics and (r.upsets is None or r.upsets < 0):
                out.problems.append(f"{r.algorithm}: upsets {r.upsets}")
            if "max_displacement" in item.metrics and not (
                    r.max_displacement is not None and 0 <= r.max_displacement <= item.n - 1):
                out.problems.append(f"{r.algorithm}: max_displacement {r.max_displacement}")
        for algorithm in item.algorithms:
            ok = sum(1 for r in raw if r.algorithm == algorithm and not r.error)
            means = [r for r in rows if r.agg and r.stat == "mean" and r.algorithm == algorithm]
            if [r.trials_ok for r in means] != [ok]:
                out.problems.append(f"{algorithm}: aggregate trials_ok "
                                    f"{[r.trials_ok for r in means]}, raw successes {ok}")
        if item.gamma_grid == (0.0,) and (out.solved != len(raw)
                                          or any(r.kendall != 0 for r in raw)):
            out.problems.append(f"gamma=0 item seed={item.seed} not ranked exactly: "
                                f"{[(r.algorithm, r.kendall, r.error) for r in raw]}")
        return out


@dataclass(frozen=True)
class EdgeSample:
    """What the sampler wrote: true scores and the rows in file order."""

    scores: np.ndarray
    i: np.ndarray
    j: np.ndarray
    v: np.ndarray


def write_edge_list(path: str, n: int, p: float, gamma: float, seed: int,
                    repeat_frac: float) -> EdgeSample:
    """Sample an outliers-model edge list in O(m) memory and write it as CSV.

    Scores are U[0, 1). About p * n(n-1)/2 ordered pairs i != j are drawn
    uniformly with replacement; a further ``repeat_frac`` share repeats
    earlier pairs, as repeated matches do. Each row carries r_i - r_j, or
    with probability ``gamma`` a U[-M, M] outlier (M the largest score), and
    is written in a random orientation (j, i, -value). Values are written
    with ``repr``, so the file reads back exactly and the same seed writes
    the same bytes.
    """
    rng = np.random.default_rng(seed)
    scores = rng.random(n)
    m = int(rng.binomial(n * (n - 1) // 2, p))
    i = rng.integers(0, n, m)
    j = rng.integers(0, n - 1, m)
    j += j >= i
    again = rng.integers(0, m, int(round(repeat_frac * m)))
    i, j = np.concatenate([i, i[again]]), np.concatenate([j, j[again]])
    v = scores[i] - scores[j]
    outlier = rng.random(i.size) < gamma
    v[outlier] = rng.uniform(-scores.max(), scores.max(), int(outlier.sum()))
    flip = rng.random(i.size) < 0.5
    i, j, v = np.where(flip, j, i), np.where(flip, i, j), np.where(flip, -v, v)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, i.size, WRITE_ROWS):
            stop = start + WRITE_ROWS
            rows = zip(i[start:stop].tolist(), j[start:stop].tolist(), v[start:stop].tolist())
            fh.write("".join(f"{a},{b},{c!r}\n" for a, b, c in rows))
    return EdgeSample(scores, i, j, v)


@dataclass(frozen=True)
class Expected:
    """What a correct ``svdrank rank`` output must agree with."""

    scores: np.ndarray  # true scores by node id
    kept: np.ndarray  # sorted node ids of the largest connected component
    lo: np.ndarray  # folded pairs (lo < hi) with both ends in ``kept``
    hi: np.ndarray
    value: np.ndarray  # measured lo-over-hi offset, repeated rows summed in file order


def expected_rank_output(sample: EdgeSample) -> Expected:
    n = int(max(sample.i.max(), sample.j.max())) + 1
    lo, hi = np.minimum(sample.i, sample.j), np.maximum(sample.i, sample.j)
    _, first, inverse = np.unique(lo * n + hi, return_index=True, return_inverse=True)
    value = np.bincount(inverse, weights=np.where(sample.i < sample.j, sample.v, -sample.v))
    lo, hi = lo[first], hi[first]
    graph = coo_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    kept_mask = labels == np.argmax(np.bincount(labels))
    inside = kept_mask[lo] & kept_mask[hi]
    return Expected(sample.scores, np.flatnonzero(kept_mask), lo[inside], hi[inside],
                    value[inside])


@dataclass(frozen=True)
class RankItem:
    path: str
    out: str
    digest: str  # sha256 of the edge-list file
    expected: Expected = field(compare=False)


@dataclass(frozen=True)
class RankCliWorkload:
    """Items are ``svdrank rank`` runs through ``cli.main`` on a sampled edge list."""

    items_per_pass: int
    n: int
    p: float
    gamma: float
    repeat_frac: float
    warm_n: int
    warm_p: float

    def _write(self, workdir: str, tag: str, n: int, p: float, seed: int) -> RankItem:
        path = os.path.join(workdir, f"{tag}.csv")
        sample = write_edge_list(path, n, p, self.gamma, seed, self.repeat_frac)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return RankItem(path, os.path.join(workdir, f"{tag}.out.csv"), digest,
                        expected_rank_output(sample))

    def setup(self, seed: int, workdir: str) -> list[RankItem]:
        items = [self._write(workdir, f"edges{k}", self.n, self.p, s)
                 for k, s in enumerate(_item_seeds(seed, self.items_per_pass))]
        warm = self._write(workdir, "warm", self.warm_n, self.warm_p, WARM_SEED)
        self.run(warm)
        return items

    def run(self, item: RankItem) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["rank", "--input", item.path, "--out", item.out])

    def check(self, item: RankItem, exit_code: int) -> Outcome:
        if exit_code != 0:
            return Outcome(attempted=1, solved=0, accuracy=[], signature=exit_code,
                           errors=[f"exit {exit_code}"], completed=False)
        with open(item.out, encoding="utf-8") as fh:
            text = fh.read()
        out = Outcome(attempted=1, solved=0, accuracy=[],
                      signature=hashlib.sha256(text.encode()).hexdigest())
        lines = text.splitlines()
        header = dict(kv.split("=", 1) for kv in lines[0].lstrip("# ").split())
        body = np.array([line.split(",") for line in lines[2:]], dtype=np.float64)
        position, items, score = body[:, 0], body[:, 1].astype(np.int64), body[:, 2]
        exp = item.expected
        if not (np.array_equal(position, np.arange(items.size))
                and np.array_equal(np.sort(items), exp.kept)
                and int(header["n"]) == exp.kept.size):
            out.problems.append("rank output is not a permutation of the kept nodes")
            return out
        estimate = np.zeros(exp.scores.size)
        estimate[items] = score
        offsets = estimate[exp.lo] - estimate[exp.hi]
        upsets = int(np.count_nonzero(np.sign(exp.value) * np.sign(offsets) == -1.0))
        if int(header["upsets"]) != upsets:
            out.problems.append(f"header upsets={header['upsets']}, recomputed {upsets}")
        tau = kendalltau(exp.scores[items], -position).statistic
        out.solved = 1
        out.accuracy.append((1.0 + tau) / 2.0)
        return out


# Per-item costs in the comments were measured on a 2-core x86-64 VM with one BLAS thread.
WORKLOADS = {
    # The c10 sweep cell, n=1000, p=1, all four algorithms: ~2 s per item, a
    # third of it in generate_ero/build_H validation. Eight items cover the
    # gamma grid 0.0-0.7 once, so every pass has the same mix. The warm-up
    # is n=500 (~0.25 s): at n=300 its time varied by a fifth within a run.
    "dense_cell": SweepWorkload(
        items_per_pass=8, n=1000, p=1.0,
        gammas=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
        algorithms=ALL_ALGORITHMS, metrics=("kendall",), completion=False,
        warm_n=500, warm_p=1.0),
    # Sparse and noisy: 2-6 s per item, ~90% in top2_svd; about one spectral
    # solve in five raises NotConverged. max_displacement is the O(n^2)
    # metric. Item cost and failures vary with the instance; eight items are
    # what a pass of run_seconds holds.
    "sparse_noisy": SweepWorkload(
        items_per_pass=8, n=2000, p=0.01, gammas=(0.6,),
        algorithms=ALL_ALGORITHMS, metrics=("kendall", "upsets", "max_displacement"),
        completion=False, warm_n=1000, warm_p=0.02),
    # `svdrank rank` on ~400k rows over 20000 nodes: ingest, pruning and
    # connectivity scale with n and m here, not with a generator.
    "rank_cli": RankCliWorkload(
        items_per_pass=1, n=20000, p=0.002, gamma=0.2, repeat_frac=0.03,
        warm_n=500, warm_p=0.05),
    # The only path through complete_matrix: ~2.2 s per item, almost all in
    # 250 dense SVDs; clean data, so every item must rank exactly. The warm-up
    # is n=80 (~0.3 s): at n=60 its time varied by a third within a run.
    "completion": SweepWorkload(
        items_per_pass=8, n=200, p=0.3, gammas=(0.0,),
        algorithms=("svd_rs", "svd_nrs"), metrics=("kendall",), completion=True,
        warm_n=80, warm_p=0.3),
}
