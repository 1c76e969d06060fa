"""Span tracing of svdrank's layers from outside the package.

While a :class:`Tracer` is installed with :func:`traced`, every public
function of the layer modules (``model``, ``linalg``, ``algorithms``,
``baselines``, ``metrics``, ``harness``, ``cli``) and the few private
boundaries named in ``EXTRA`` are replaced, in every ``svdrank`` module
namespace that refers to them, by wrappers that record one span per call:
name, start, end, parent span and the exception type if the call raised.
``SkewSparseMatrix.matvec`` is wrapped on the class, so every product is
counted. Spans stay in memory; :func:`layer_metrics` turns them into the
per-layer numbers once the traced work is done. Nothing inside
``src/svdrank`` is edited.
"""

from __future__ import annotations

import importlib
import inspect
import math
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("model", "linalg", "algorithms", "baselines", "metrics", "harness", "cli")

# Private functions that are stage boundaries the public names do not show.
EXTRA = {
    ("algorithms", "_scale_and_package"): "algorithms.sign_scale",
    ("cli", "_cmd_rank"): "cli.rank",
}
MATVEC = "linalg.SkewSparseMatrix.matvec"


def cpu_seconds() -> float:
    """CPU seconds of this process and of its child processes that have ended.

    The benchmark's one clock, for item times and for spans. Children count so
    that work moved into worker processes is still timed. CPU time leaves out
    time a shared host steals, which made elapsed times spread twice as far
    from run to run on a 2-core VM; the run checks separately that elapsed
    time stays close to this (see ``run.ELAPSED_OVER_CPU_MAX``).
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _iterations(result, exc):
    """top2_svd sweeps, from the returned pair or from NotConverged."""
    source = result if exc is None else exc
    return getattr(source, "iterations", 0)


def _completion(result, exc):
    return None if exc is not None else (result.iterations, result.converged)


def _tau_beta_disagree(result, exc):
    if exc is not None:
        return None
    return not (math.isfinite(result.tau) and (result.tau > 0) == (result.beta > 0))


def _edges(result, exc):
    return None if exc is not None else result.num_entries


# Per span name, a function of (return value, exception) kept as span.info.
NOTES = {
    "linalg.top2_svd": _iterations,
    "baselines.complete_matrix": _completion,
    "algorithms.sign_scale": _tau_beta_disagree,
    "model.build_H": _edges,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    error: str | None = None
    info: object = None


class Tracer:
    """Collects spans of wrapped calls made from one thread, timed by ``cpu_seconds``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, cpu_seconds

        def traced_call(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                if note is not None:
                    span.info = note(None, exc)
                raise
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.info = note(result, None)
            return result

        return traced_call


@contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s wrappers into the loaded svdrank modules, then restore."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"svdrank.{layer}")
        for attr, obj in vars(module).items():
            public = not attr.startswith("_") or (layer, attr) in EXTRA
            if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                name = EXTRA.get((layer, attr), f"{layer}.{attr}")
                wrappers[obj] = tracer.wrap(name, obj, NOTES.get(name))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "svdrank" and not mod_name.startswith("svdrank."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    matrix = importlib.import_module("svdrank.linalg").SkewSparseMatrix
    patched.append((matrix, "matvec", matrix.__dict__["matvec"]))
    matrix.matvec = tracer.wrap(MATVEC, matrix.__dict__["matvec"])
    try:
        yield tracer
    finally:
        for owner, attr, obj in reversed(patched):
            setattr(owner, attr, obj)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(s, span.start), min(e, span.end)) for s, e in kids]
        out.append((span.end - span.start) - covered([c for c in clipped if c[0] < c[1]]))
    return out


def busy(spans: list[Span], names) -> float:
    """Wall time during which at least one span with a name in ``names`` was open."""
    return covered([(s.start, s.end) for s in spans if s.name in names])


# (metric name, unit); the values come from layer_metrics.
PER_LAYER = (
    ("model.generate_ero.s", "s"),
    ("model.build_H.s", "s"),
    ("model.edges", "count"),
    ("linalg.top2_svd.s", "s"),
    ("linalg.top2_svd.calls", "count"),
    ("linalg.top2_svd.not_converged", "count"),
    ("linalg.matvec.calls", "count"),
    ("linalg.matvec.s", "s"),
    ("linalg.matvecs_per_solve", "count"),
    ("linalg.connectivity.s", "s"),
    ("algorithms.svd_rs.self_s", "s"),
    ("algorithms.svd_nrs.self_s", "s"),
    ("algorithms.sign_scale.s", "s"),
    ("algorithms.tau_beta_disagree", "count"),
    ("baselines.rowsum_rank.s", "s"),
    ("baselines.least_squares_rank.s", "s"),
    ("baselines.complete_matrix.s", "s"),
    ("baselines.complete_matrix.iterations", "count"),
    ("baselines.complete_matrix.not_converged", "count"),
    ("metrics.kendall_distance.s", "s"),
    ("metrics.max_displacement.s", "s"),
    ("metrics.upsets.s", "s"),
    ("harness.ingest_edge_list.s", "s"),
    ("harness.prune_and_restrict.s", "s"),
    ("harness.run_sweep.self_s", "s"),
    ("cli.rank.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)


def layer_metrics(spans: list[Span], passes: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics per pass over the workload's items.

    Times, in CPU seconds, are busy times (``.s``) or summed self times
    (``.self_s``). Counts are per pass, so a call that never happens reads 0
    rather than a ratio with nothing to divide by. The one ratio,
    ``matvecs_per_solve``, reads 0 only when no solve ran (and so no matvec).
    """
    by_name: dict[str, list[int]] = {}
    for k, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(k)
    own = self_times(spans)

    def s(*names):
        return busy(spans, set(names)) / passes

    def self_s(name):
        return sum(own[k] for k in by_name.get(name, ())) / passes

    def infos(name):
        return [spans[k].info for k in by_name.get(name, ()) if spans[k].info is not None]

    solves = len(by_name.get("linalg.top2_svd", ()))
    matvecs = len(by_name.get(MATVEC, ()))
    completions = infos("baselines.complete_matrix")
    values = {
        "model.generate_ero.s": s("model.generate_ero"),
        "model.build_H.s": s("model.build_H"),
        "model.edges": sum(infos("model.build_H")) / passes,
        "linalg.top2_svd.s": s("linalg.top2_svd"),
        "linalg.top2_svd.calls": solves / passes,
        "linalg.top2_svd.not_converged": sum(
            spans[k].error == "NotConverged" for k in by_name.get("linalg.top2_svd", ())) / passes,
        "linalg.matvec.calls": matvecs / passes,
        "linalg.matvec.s": s(MATVEC),
        "linalg.matvecs_per_solve": matvecs / solves if solves else 0.0,
        "linalg.connectivity.s": s("linalg.component_count", "linalg.component_labels"),
        "algorithms.svd_rs.self_s": self_s("algorithms.svd_rs"),
        "algorithms.svd_nrs.self_s": self_s("algorithms.svd_nrs"),
        "algorithms.sign_scale.s": s("algorithms.sign_scale"),
        "algorithms.tau_beta_disagree": sum(infos("algorithms.sign_scale")) / passes,
        "baselines.rowsum_rank.s": s("baselines.rowsum_rank"),
        "baselines.least_squares_rank.s": s("baselines.least_squares_rank"),
        "baselines.complete_matrix.s": s("baselines.complete_matrix"),
        "baselines.complete_matrix.iterations": sum(it for it, _ in completions) / passes,
        "baselines.complete_matrix.not_converged": sum(not ok for _, ok in completions) / passes,
        "metrics.kendall_distance.s": s("metrics.kendall_distance"),
        "metrics.max_displacement.s": s("metrics.max_displacement"),
        "metrics.upsets.s": s("metrics.count_upsets"),
        "harness.ingest_edge_list.s": s("harness.ingest_edge_list"),
        "harness.prune_and_restrict.s": s("harness.prune_and_restrict"),
        "harness.run_sweep.self_s": self_s("harness.run_sweep"),
        "cli.rank.self_s": self_s("cli.rank"),
        "trace.overhead_frac": overhead_frac,
    }
    return values
