"""Tests of the benchmark's own code: the edge-list sampler and the trace arithmetic.

Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import svdrank.linalg
from spans import (MATVEC, PER_LAYER, Span, Tracer, busy, cpu_seconds, layer_metrics,
                   self_times, traced)
from svdrank.errors import NotConverged
from svdrank.model import EROParams, build_H, generate_ero, generate_scores
from workloads import WORKLOADS, write_edge_list


def test_sampler_same_seed_writes_same_bytes(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    for path, seed in zip(paths, (5, 5, 6)):
        write_edge_list(str(path), n=300, p=0.05, gamma=0.2, seed=seed, repeat_frac=0.03)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_sampler_rows_match_what_it_returns(tmp_path):
    path = tmp_path / "e.csv"
    sample = write_edge_list(str(path), n=300, p=0.05, gamma=0.0, seed=1, repeat_frac=0.03)
    rows = np.loadtxt(path, delimiter=",")
    assert np.array_equal(rows[:, 0], sample.i) and np.array_equal(rows[:, 1], sample.j)
    assert np.array_equal(rows[:, 2], sample.v)
    assert np.all(sample.i != sample.j)
    # gamma = 0: every row is the exact offset in its written orientation.
    assert np.array_equal(sample.v, sample.scores[sample.i] - sample.scores[sample.j])
    assert 0.3 < np.mean(sample.i < sample.j) < 0.7


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent)


def test_self_time_is_duration_minus_interval_children_cover():
    spans = [_span("a", 0.0, 10.0),
             _span("b", 1.0, 3.0, 0), _span("c", 2.0, 4.0, 0),  # overlap: cover [1, 4]
             _span("d", 9.0, 12.0, 0),  # clipped to the parent: covers [9, 10]
             _span("e", 1.5, 2.5, 1)]  # grandchild: already inside b
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[4] == pytest.approx(1.0)
    assert busy(spans, {"b", "c", "e"}) == pytest.approx(3.0)


def _small_matrix(seed=3):
    scores = generate_scores("uniform01", 80, seed=seed)
    return build_H(generate_ero(scores, EROParams(n=80, p=0.3, eta=0.7, seed=seed)))


def test_matvec_calls_are_four_per_top2_svd_sweep():
    H = _small_matrix()
    tracer = Tracer()
    with traced(tracer):
        pair = svdrank.linalg.top2_svd(H)
    solves = [s for s in tracer.spans if s.name == "linalg.top2_svd"]
    matvecs = [s for s in tracer.spans if s.name == MATVEC]
    assert [s.info for s in solves] == [pair.iterations]
    assert len(matvecs) == 4 * pair.iterations
    assert all(tracer.spans[s.parent] is solves[0] for s in matvecs)


def test_not_converged_solve_is_counted_with_its_sweeps():
    tracer = Tracer()
    with traced(tracer), pytest.raises(NotConverged) as info:
        svdrank.linalg.top2_svd(_small_matrix(), max_iter=3)
    solve, = [s for s in tracer.spans if s.name == "linalg.top2_svd"]
    assert solve.error == "NotConverged" and solve.info == info.value.iterations == 3
    assert sum(s.name == MATVEC for s in tracer.spans) == 12
    metrics = layer_metrics(tracer.spans, passes=1, overhead_frac=0.0)
    assert metrics["linalg.top2_svd.not_converged"] == 1
    assert metrics["linalg.matvecs_per_solve"] == 12


def test_cpu_clock_counts_ended_child_processes():
    before = cpu_seconds()
    subprocess.run([sys.executable, "-c", "sum(range(10**7))"], check=True)
    assert cpu_seconds() - before > 0.05


def test_calls_that_never_happen_read_zero():
    metrics = layer_metrics([], passes=1, overhead_frac=0.0)
    assert all(v == 0 for v in metrics.values())


def test_traced_restores_the_package():
    before = (svdrank.linalg.top2_svd, svdrank.linalg.SkewSparseMatrix.matvec)
    with traced(Tracer()):
        assert svdrank.linalg.top2_svd is not before[0]
    assert (svdrank.linalg.top2_svd, svdrank.linalg.SkewSparseMatrix.matvec) == before


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert list(layer_metrics([], passes=1, overhead_frac=0.0)) == [n for n, _ in PER_LAYER]
