"""Command-line interface.

Verbs:
  sweep     run a synthetic (p, gamma, trials) grid from a config file
  rank      rank a single instance read from an edge-list CSV
  complete  fill in missing offsets by matrix completion
  bounds    evaluate the theoretical error bounds at given parameters
  selftest  run the built-in example checks

Exit codes: 0 success, 2 configuration error, 3 input/output error,
4 numerical/model failure, 1 selftest failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

import numpy as np

from .baselines import CompletionConfig, complete_matrix
from .errors import InvalidParam, ParseError, SvdRankError
from .harness import (
    ALGORITHMS,
    complete_and_rank,
    ingest_edge_list,
    load_config,
    prune_and_restrict,
    run_sweep,
    write_csv,
)
from .metrics import count_upsets, weighted_upsets
from .model import generate_scores
from .selftest import run_selftest
from .theory import BoundParams, ModelStats, coherence, evaluate_all_bounds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svdrank", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    sweep = sub.add_parser("sweep", help="run a synthetic experiment grid")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", default=None, help="override the config output path")
    sweep.add_argument("--seed", type=int, default=None, help="override the config seed")
    sweep.add_argument("--workers", type=int, default=None)

    rank = sub.add_parser("rank", help="rank one instance from an edge-list CSV")
    rank.add_argument("--input", required=True)
    rank.add_argument("--algorithm", default="svd_rs", choices=ALGORITHMS)
    rank.add_argument("--n", type=int, default=None)
    rank.add_argument("--one-indexed", action="store_true")
    rank.add_argument("--min-degree", type=int, default=0)
    rank.add_argument("--completion", action="store_true")
    rank.add_argument("--seed", type=int, default=0)
    rank.add_argument("--out", default="-", help="output CSV path, '-' for stdout")

    comp = sub.add_parser("complete", help="matrix-complete an edge list")
    comp.add_argument("--input", required=True)
    comp.add_argument("--n", type=int, default=None)
    comp.add_argument("--one-indexed", action="store_true")
    comp.add_argument("--max-iter", type=int, default=CompletionConfig.max_iter)
    comp.add_argument("--tol", type=float, default=CompletionConfig.tol)
    comp.add_argument("--out", default="-")

    bounds = sub.add_parser("bounds", help="evaluate theoretical bounds")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--p", type=float, required=True)
    bounds.add_argument("--gamma", type=float, required=True, help="noise level 1 - eta")
    bounds.add_argument("--scores", default="linear", choices=("linear", "uniform01", "gamma"))
    bounds.add_argument("--epsilon", type=float, default=0.5)
    bounds.add_argument("--seed", type=int, default=0)

    sub.add_parser("selftest", help="run the built-in example checks")
    return parser


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    overrides = {}
    if args.out is not None:
        overrides["out"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    rows = run_sweep(cfg)
    write_csv(rows, cfg.out, include_timing=cfg.include_timing)
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def _cmd_rank(args) -> int:
    mset = ingest_edge_list(args.input, one_indexed=args.one_indexed, n=args.n)
    pruned, mapping = prune_and_restrict(mset, min_degree=args.min_degree)
    completion = CompletionConfig() if args.completion else None
    [(_, result, _)] = complete_and_rank(pruned, (args.algorithm,), completion, args.seed)
    if isinstance(result, SvdRankError):
        raise result
    offset = 1 if args.one_indexed else 0
    lines = [f"# method={result.method} n={pruned.n} tau={_opt(result.tau)} "
             f"beta={result.beta} upsets={count_upsets(pruned, result.score_estimate)} "
             f"weighted_upsets={_opt(weighted_upsets(pruned, result.score_estimate))}",
             "position,item,score"]
    for pos, node in enumerate(result.permutation):
        lines.append(f"{pos + offset},{int(mapping[node]) + offset},"
                     f"{_opt(float(result.score_estimate[node]))}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _opt(value: float) -> str:
    return format(value, ".12g")


def _cmd_complete(args) -> int:
    mset = ingest_edge_list(args.input, one_indexed=args.one_indexed, n=args.n)
    cfg = CompletionConfig(max_iter=args.max_iter, tol=args.tol)
    result = complete_matrix(mset, cfg)
    lines = [f"# converged={result.converged} iterations={result.iterations} "
             f"effective_rank={result.effective_rank}"]
    n = result.matrix.shape[0]
    iu, ju = np.triu_indices(n, 1)
    for i, j in zip(iu, ju):
        lines.append(f"{i},{j},{format(result.matrix[i, j], '.12g')}")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_bounds(args) -> int:
    eta = 1.0 - args.gamma
    if not 0.0 < args.p <= 1.0 or not 0.0 <= args.gamma < 1.0:
        raise InvalidParam("bounds need 0 < p <= 1 and 0 <= gamma < 1")
    scores = generate_scores(args.scores, args.n, seed=args.seed)
    params = BoundParams(epsilon=args.epsilon)
    stats = ModelStats.from_scores(scores, args.p, eta)
    report = evaluate_all_bounds(scores, args.p, eta, params)
    print(f"model: n={args.n} p={args.p} gamma={args.gamma} scores={args.scores} "
          f"M={stats.M:.6g} dev_norm={stats.dev_norm:.6g}")
    print("note: l-infinity values use placeholder universal constants = 1; "
          "treat them qualitatively")
    for name, value in report.values.items():
        ok = report.preconditions_ok[name]
        print(f"{name:26s} {value:14.6g}   precondition_ok={ok}")
    print(f"{'completion_coherence':26s} {coherence(scores):14.6g}")
    return 0


def _emit(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise InvalidParam("seed must be >= 0")
        if args.verb == "sweep":
            return _cmd_sweep(args)
        if args.verb == "rank":
            return _cmd_rank(args)
        if args.verb == "complete":
            return _cmd_complete(args)
        if args.verb == "bounds":
            return _cmd_bounds(args)
        if args.verb == "selftest":
            return 0 if run_selftest() else 1
    except InvalidParam as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except SvdRankError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
