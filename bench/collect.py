"""Run bench/run.py over several seeds and summarise each metric across the runs.

Run from the repository root, one run at a time::

    python3 bench/collect.py --workloads dense_cell,sparse_noisy --seeds 1-10 \
        --trace 0 --out bench/BENCH_mylabel.json

For every workload and metric it reports the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound
in BENCHMARK.json. Every run measures BENCHMARK.json's ``run_seconds``.
Item CPU times are pooled across the runs, so that a tail percentile has at
least ten items beyond it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """'1-5' or '1,4,9' -> list of seeds."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            **{k: record[k] for k in ("env", "setup_s", "pass_s", "item_s", "item_s_traced",
                                      "item_wall_s", "elapsed_over_cpu", "errors",
                                      "problems")}}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "values": values}


def pooled_tail(times: list[float]) -> dict:
    """Median and the highest whole percentile with at least ten samples beyond it."""
    out = {"n": len(times)}
    if times:
        out["p50"] = statistics.median(times)
    q = math.floor(100 * (1 - 10 / len(times))) if len(times) >= 20 else 0
    if q > 50:
        out[f"p{q}"] = statistics.quantiles(times, n=100)[q - 1]
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"command": spec["command"], "seconds": spec["run_seconds"], "trace": args.trace,
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(spec, workload, seed, args.trace))
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()
                if k in ("pass_cpu_s", "linalg.top2_svd.s")), file=sys.stderr, flush=True)
        metrics = {name: summarise([r["metrics"][name] for r in runs])
                   for name in runs[0]["metrics"]}
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "metrics": metrics,
            "item_s_pooled": pooled_tail([t for r in runs for t in r["item_s"]]),
            "runs": runs,
        }
        for name, m in metrics.items():
            bound, spread = bounds.get(name), m["spread"]
            note = (f"  bound {bound}  spread/bound {spread / bound:.2f}"
                    if bound and spread is not None else "")
            print(f"{workload:13s} {name:42s} median {m['median']:<12.6g} spread "
                  f"{'-' if spread is None else format(spread, '.4f')}{note}")
        print(f"{workload:13s} item_s pooled {summary['workloads'][workload]['item_s_pooled']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
