from __future__ import annotations

import numpy as np
import pytest

from svdrank.errors import ConfigError, ParseError, SelfLoop
from svdrank.harness import (
    evaluate_real,
    ingest_edge_list,
    parse_config_text,
    prune_and_restrict,
    run_sweep,
    write_csv,
)
from svdrank.linalg import SkewSparseMatrix
from svdrank.model import EROParams, generate_ero, generate_scores

BASE_CONFIG = """
# minimal sweep
n = 40
scores = uniform01
p_grid = 1.0
gamma_grid = 0.0
trials = 1
seed = 7
algorithms = svd_rs
out = results.csv
"""


class TestConfigParsing:
    def test_minimal(self):
        cfg = parse_config_text(BASE_CONFIG)
        assert cfg.n == 40
        assert cfg.p_grid == (1.0,)
        assert cfg.algorithms == ("svd_rs",)

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="mystery_knob"):
            parse_config_text(BASE_CONFIG + "\nmystery_knob = 3\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="n, p_grid, gamma_grid"):
            parse_config_text("n = 10\n")

    def test_bad_flag(self):
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CONFIG + "\ncompletion = maybe\n")

    def test_completion_knobs(self):
        cfg = parse_config_text(BASE_CONFIG + "\ncompletion = on\ncompletion_max_iter = 77\n")
        assert cfg.completion
        assert cfg.completion_cfg.max_iter == 77

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            parse_config_text("n = 10\np_grid = 1.5\ngamma_grid = 0\n")
        with pytest.raises(ConfigError):
            parse_config_text("n = 10\np_grid = 0.5\ngamma_grid = 0\ntrials = 0\n")


class TestRunSweep:
    def test_noiseless_single_cell(self):
        cfg = parse_config_text(BASE_CONFIG)
        rows = run_sweep(cfg)
        raw = [r for r in rows if not r.agg]
        assert len(raw) == 1
        assert raw[0].kendall == 0
        assert raw[0].rmse < 1e-6
        assert raw[0].error == ""
        aggs = [r for r in rows if r.agg]
        assert {r.stat for r in aggs} == {"mean", "std"}

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = parse_config_text(BASE_CONFIG.replace("trials = 1", "trials = 3")
                                .replace("gamma_grid = 0.0", "gamma_grid = 0.0, 0.2"))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(cfg), str(out_a))
        write_csv(run_sweep(cfg), str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_workers_do_not_change_results(self, tmp_path):
        text = BASE_CONFIG.replace("trials = 1", "trials = 2")
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(parse_config_text(text)), str(out_a))
        write_csv(run_sweep(parse_config_text(text + "\nworkers = 2\n")), str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_failing_cell_is_marked_not_fatal(self):
        # p tiny: disconnected draws make spectral methods fail, sweep survives
        cfg = parse_config_text("""
n = 30
p_grid = 0.01, 1.0
gamma_grid = 0.0
trials = 2
seed = 3
algorithms = svd_rs, rowsum
""")
        rows = run_sweep(cfg)
        raw = [r for r in rows if not r.agg]
        assert len(raw) == 8
        failed = [r for r in raw if r.error]
        assert failed, "expected the sparse cell to fail for the spectral method"
        assert all(r.algorithm == "svd_rs" for r in failed)
        ok_dense = [r for r in raw if r.p == 1.0 and not r.error]
        assert len(ok_dense) == 4

    def test_completion_restores_noiseless_partial(self):
        # p=0.5 noiseless: spectral ranking alone misorders, completion fixes it
        base = """
n = 60
scores = linear
p_grid = 0.5
gamma_grid = 0.0
trials = 2
seed = 13
algorithms = svd_rs
"""
        plain = [r for r in run_sweep(parse_config_text(base)) if not r.agg]
        completed = [r for r in run_sweep(parse_config_text(base + "completion = on\n"))
                     if not r.agg]
        assert all(r.kendall == 0 for r in completed), [r.kendall for r in completed]
        assert sum(r.kendall for r in plain) > 0

    def test_completion_stopped_at_max_iter_still_ranks(self):
        cfg = parse_config_text("""
n = 40
scores = uniform01
p_grid = 0.3
gamma_grid = 0.2
trials = 3
seed = 9
algorithms = svd_rs, rowsum
completion = on
completion_max_iter = 2
""")
        rows = run_sweep(cfg)
        raw = [r for r in rows if not r.agg]
        assert len(raw) == 6
        assert all(r.error == "" and r.kendall is not None for r in raw)
        assert all(r.trials_ok == cfg.trials for r in rows if r.agg)
        scores = generate_scores("uniform01", 40, seed=9)
        mset = generate_ero(scores, EROParams(n=40, p=0.3, eta=0.8, seed=9))
        real = evaluate_real(mset, algorithms=("svd_rs",), completion=cfg.completion_cfg)
        assert all(r.error == "" and r.upsets is not None for r in real)

    def test_theory_columns(self):
        cfg = parse_config_text("""
n = 60
scores = linear
p_grid = 1.0
gamma_grid = 0.1
trials = 2
seed = 5
algorithms = svd_rs, svd_nrs, rowsum
metrics = kendall, theory
""")
        rows = [r for r in run_sweep(cfg) if not r.agg]
        for row in rows:
            if row.algorithm in ("svd_rs", "svd_nrs"):
                assert row.u2_sq_err is not None
                assert row.u2_sq_bound is not None
                assert row.bound_contained == 1
            else:
                assert row.u2_sq_err is None


class TestIngest:
    def test_antisymmetric_folding(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("0,1,2\n1,0,-3\n")
        mset = ingest_edge_list(str(path))
        assert mset.num_entries == 1
        assert mset.rows[0] == 0 and mset.cols[0] == 1
        assert mset.values[0] == pytest.approx(5.0)

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("0,1,2\n0,1,3\n2,1,1\n")
        mset = ingest_edge_list(str(path))
        dense = {(int(i), int(j)): v for i, j, v in
                 zip(mset.rows, mset.cols, mset.values)}
        assert dense == {(0, 1): 5.0, (1, 2): -1.0}

    def test_empty_file_with_n(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("")
        mset = ingest_edge_list(str(path), n=3)
        assert mset.num_entries == 0
        assert not mset.is_connected

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("0,1,2\n2,2,4\n")
        with pytest.raises(SelfLoop, match="line 2"):
            ingest_edge_list(str(path))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("0,1,2\n1,2\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest_edge_list(str(path))
        path.write_text("0,1,x\n")
        with pytest.raises(ParseError, match="line 1"):
            ingest_edge_list(str(path))

    def test_one_indexed(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("1,2,4\n")
        mset = ingest_edge_list(str(path), one_indexed=True)
        assert mset.n == 2
        assert mset.rows[0] == 0 and mset.cols[0] == 1

    def test_sports_style_fixture(self, tmp_path):
        # ten result rows over five teams, duplicates and reversed orientations
        rows = [
            "0,1,7", "1,0,-3",   # team 0 beat team 1 by 7 then by 3 -> +10
            "0,2,-2",            # team 2 beat team 0 by 2
            "1,2,4", "2,1,1",    # folds to +3 for team 1
            "1,3,-5",
            "2,3,2", "3,2,-1",   # folds to +3
            "3,4,6",
            "0,4,1",
        ]
        path = tmp_path / "ncaa.csv"
        path.write_text("\n".join(rows) + "\n")
        mset = ingest_edge_list(str(path))
        expected = {(0, 1): 10.0, (0, 2): -2.0, (1, 2): 3.0, (1, 3): -5.0,
                    (2, 3): 3.0, (3, 4): 6.0, (0, 4): 1.0}
        got = {(int(i), int(j)): v for i, j, v in
               zip(mset.rows, mset.cols, mset.values)}
        assert got == expected


class TestRealEvaluation:
    def test_min_degree_prunes_exactly_leaves(self):
        # complete graph on 0..3 (degree 3 each) plus a pendant node 4
        rows = np.array([0, 0, 0, 1, 1, 2, 0])
        cols = np.array([1, 2, 3, 2, 3, 3, 4])
        values = np.ones(7)
        mset = SkewSparseMatrix(5, rows, cols, values)
        pruned, mapping = prune_and_restrict(mset, min_degree=3)
        assert pruned.n == 4
        assert list(mapping) == [0, 1, 2, 3]

    def test_disconnected_keeps_largest_component(self):
        rows = np.array([0, 1, 3])
        cols = np.array([1, 2, 4])
        mset = SkewSparseMatrix(5, rows, cols, np.array([1.0, 1.0, 1.0]))
        pruned, mapping = prune_and_restrict(mset)
        assert pruned.n == 3
        assert list(mapping) == [0, 1, 2]

    def test_noiseless_real_path_zero_upsets(self):
        scores = generate_scores("uniform01", 40, seed=2)
        mset = generate_ero(scores, EROParams(n=40, p=1.0, eta=1.0, seed=3))
        rows = evaluate_real(mset, algorithms=("svd_rs",))
        svd_row = next(r for r in rows if r.algorithm == "svd_rs")
        assert svd_row.upsets == 0
        assert svd_row.error == ""

    def test_random_baseline_near_half(self):
        scores = generate_scores("uniform01", 40, seed=4)
        mset = generate_ero(scores, EROParams(n=40, p=1.0, eta=1.0, seed=5))
        rows = evaluate_real(mset, algorithms=("rowsum",), seed=11)
        rand_row = next(r for r in rows if r.algorithm == "random")
        frac = rand_row.upsets / mset.num_entries
        assert 0.35 < frac < 0.65


def test_write_csv_excludes_timing_by_default(tmp_path):
    cfg = parse_config_text(BASE_CONFIG)
    rows = run_sweep(cfg)
    out = tmp_path / "r.csv"
    write_csv(rows, str(out))
    header = out.read_text().splitlines()[0]
    assert "runtime_ms" not in header
    write_csv(rows, str(out), include_timing=True)
    assert "runtime_ms" in out.read_text().splitlines()[0]
