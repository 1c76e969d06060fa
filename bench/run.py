"""Benchmark for svdrank: one workload per run, end-to-end or per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload dense_cell --seed 1 --seconds 20 --trace 0

The workload seed fixes the workload's items (one pass). After setting up
``SETUP_ROUNDS`` times, the run makes passes over the items while another
pass still fits in ``--seconds`` (at least one), checking every output.
Times are CPU seconds of the process and its ended children
(``spans.cpu_seconds``); the run fails if the items' elapsed time exceeds
their CPU time by more than ``ELAPSED_OVER_CPU_MAX``, so that work moved out
of sight of that clock (into waiting or into a live worker process) cannot
read as a gain.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every item
once untraced and once traced, alternating which goes first, and prints the
per-layer metrics of the traced runs (see ``spans.py``) together with
``trace.overhead_frac``, traced over untraced item time minus one.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: ``attempted`` counts item runs and ``failed`` those that
returned no output (a non-zero CLI exit); failed algorithms inside a sweep
item are part of that item's output and are counted by ``solved_frac``, and
``rank_accuracy`` is the mean over the results that did return a ranking.
The line before it records the run: environment (BLAS threads, versions,
nproc), setup, pass and item times, failed results by error, and any
output problem. Exit status 1 means an output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from spans import PER_LAYER, Tracer, cpu_seconds, layer_metrics, traced

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 9
# One BLAS/OpenMP thread: the run is one process, and on a small shared
# machine a single thread gives the steadiest times.
BLAS_THREADS = 1
# Elapsed over CPU time of the untraced item runs, summed. On a 2-core VM it
# stayed below 1.16 per run; twice that means the CPU clock missed real work.
ELAPSED_OVER_CPU_MAX = 2.0
WORKLOAD_NAMES = ("dense_cell", "sparse_noisy", "rank_cli", "completion")
END_TO_END = (
    ("pass_cpu_s", "s"),
    ("item_cpu_s_p50", "s"),
    ("solved_frac", "frac"),
    ("rank_accuracy", "frac"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _import_svdrank() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other svdrank."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import svdrank
    except ImportError as exc:
        raise SystemExit(f"cannot import svdrank from {src}: {exc}") from exc
    if Path(svdrank.__file__).resolve().parent != (src / "svdrank").resolve():
        raise SystemExit(f"imported svdrank from {svdrank.__file__}, not from {src}")


def _blas_threads_in_use(np) -> int | None:
    """Thread count the bundled scipy-openblas reports, if numpy bundles one."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            return get()
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": BLAS_THREADS, "blas_threads_in_use": _blas_threads_in_use(np),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "machine": platform.machine()}


def run_passes(workload, items: list, seconds: float, trace: bool) -> dict:
    """Pass over ``items`` while another pass fits in ``seconds``; check every output."""
    tracer = Tracer()
    item_s = {False: [], True: []}  # CPU seconds per item run, untraced and traced
    item_wall_s, pass_s, first_pass, problems, signatures = [], [], [], [], {}
    runs = failed = 0
    start = time.perf_counter()
    while True:
        pass_s.append(0.0)
        for index, item in enumerate(items):
            order = (False, True) if len(item_s[False]) % 2 == 0 else (True, False)
            modes = order if trace else (False,)
            for tracing in modes:
                with traced(tracer) if tracing else contextlib.nullcontext():
                    t0, c0 = time.perf_counter(), cpu_seconds()
                    output = workload.run(item)
                    cpu, wall = cpu_seconds() - c0, time.perf_counter() - t0
                item_s[tracing].append(cpu)
                if not tracing:
                    pass_s[-1] += cpu
                    item_wall_s.append(wall)
                outcome = workload.check(item, output)
                runs += 1
                failed += not outcome.completed
                problems += [p for p in outcome.problems if p not in problems]
                if signatures.setdefault(index, outcome.signature) != outcome.signature:
                    problems.append(f"item {index}: output differs between runs of one input")
                if len(pass_s) == 1 and not tracing:
                    first_pass.append(outcome)
        spent = time.perf_counter() - start
        if spent * (len(pass_s) + 1) / len(pass_s) > seconds:
            break
    elapsed_over_cpu = sum(item_wall_s) / sum(item_s[False])
    if elapsed_over_cpu > ELAPSED_OVER_CPU_MAX:
        problems.append(f"items took {elapsed_over_cpu:.2f}x their CPU time in elapsed "
                        f"time, above {ELAPSED_OVER_CPU_MAX}: the CPU clock misses work")
    overhead = sum(item_s[True]) / sum(item_s[False]) - 1.0 if trace else None
    return {"tracer": tracer, "item_s": item_s, "item_wall_s": item_wall_s, "pass_s": pass_s,
            "elapsed_over_cpu": elapsed_over_cpu, "first_pass": first_pass,
            "problems": problems, "runs": runs, "failed": failed, "overhead": overhead}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    _import_svdrank()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    problems = []
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        setup_s, items = [], None
        for _ in range(SETUP_ROUNDS):
            c0 = cpu_seconds()
            again = workload.setup(args.seed, workdir)
            setup_s.append(cpu_seconds() - c0)
            if items is not None and again != items:
                problems.append("setup made different inputs from the same seed")
            items = again
        result = run_passes(workload, items, args.seconds, bool(args.trace))
    problems += result["problems"]
    first = result["first_pass"]
    if args.trace:
        values = layer_metrics(result["tracer"].spans, len(result["pass_s"]), result["overhead"])
        units = dict(PER_LAYER)
    else:
        accuracy = [a for o in first for a in o.accuracy]
        if not accuracy:
            problems.append("no result returned a ranking")
            accuracy = [0.0]
        values = {
            "pass_cpu_s": statistics.median(result["pass_s"]),
            "item_cpu_s_p50": statistics.median(result["item_s"][False]),
            "solved_frac": sum(o.solved for o in first) / sum(o.attempted for o in first),
            "rank_accuracy": statistics.fmean(accuracy),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_s),
        }
        units = dict(END_TO_END)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "items_per_pass": len(items),
              "setup_s": setup_s, "pass_s": result["pass_s"],
              "item_s": result["item_s"][False], "item_s_traced": result["item_s"][True],
              "item_wall_s": result["item_wall_s"],
              "elapsed_over_cpu": result["elapsed_over_cpu"],
              "errors": Counter(e for o in first for e in o.errors), "problems": problems}
    print(json.dumps(record))
    for name, value in values.items():
        print(f"{args.workload:13s} {name:42s} {value:14.6g} {units[name]}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": result["runs"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
