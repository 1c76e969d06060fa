from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from svdrank import harness
from svdrank.baselines import CompletionConfig
from svdrank.cli import main
from svdrank.errors import DegenerateVariance, InvalidParam, ParseError, SelfLoop, SvdRankError
from svdrank.harness import (
    ALGORITHMS,
    ExperimentConfig,
    complete_and_rank,
    ingest_edge_list,
    parse_config_text,
    prune_and_restrict,
    run_sweep,
    write_csv,
)
from svdrank.linalg import SkewSparseMatrix

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

# The sweep whose CSV tests/data/sweep_golden.csv holds: every metric, and at
# p = 0.04 disconnected draws, so the file has error rows too. A change that
# moves floats on purpose regenerates the file with write_csv(run_sweep(...)).
GOLDEN_CONFIG = """
n = 40
p_grid = 0.04, 0.3, 1.0
gamma_grid = 0.0, 0.4
trials = 2
seed = 3
algorithms = svd_rs, svd_nrs, rowsum, least_squares
metrics = kendall, kendall_norm, correlation, rmse, upsets, weighted_upsets, max_displacement, theory
"""


class TestConfigParsing:
    def test_minimal(self):
        cfg = parse_config_text(BASE_CONFIG)
        assert cfg.n == 40
        assert cfg.p_grid == (1.0,)
        assert cfg.algorithms == ("svd_rs",)

    def test_unknown_keys_listed(self):
        # the completion keys name schedule settings the solver fixes
        for key, value in [("mystery_knob", "3"), ("completion_threshold", "2.0"),
                           ("completion_step", "1.0"), ("completion_decay", "0.9")]:
            with pytest.raises(InvalidParam, match=key):
                parse_config_text(f"{BASE_CONFIG}\n{key} = {value}\n")

    def test_keys_are_the_config_fields(self):
        assert set(harness._CONFIG_KEYS) == {
            "n", "scores", "gamma_shape", "gamma_scale", "p_grid", "gamma_grid", "trials",
            "seed", "algorithms", "completion", "metrics", "epsilon", "out", "workers",
            "include_timing", "completion_max_iter", "completion_tol"}

    def test_readme_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config_text(example)
        assert cfg.n == 1000

    def test_missing_required(self):
        with pytest.raises(InvalidParam, match="n, p_grid, gamma_grid"):
            parse_config_text("n = 10\n")

    def test_bad_flag(self):
        with pytest.raises(InvalidParam):
            parse_config_text(BASE_CONFIG + "\ncompletion = maybe\n")

    def test_completion_knobs(self):
        cfg = parse_config_text(BASE_CONFIG + "\ncompletion = on\ncompletion_max_iter = 77\n")
        assert cfg.completion
        assert cfg.completion_cfg.max_iter == 77

    def test_grid_validation(self):
        with pytest.raises(InvalidParam):
            parse_config_text("n = 10\np_grid = 1.5\ngamma_grid = 0\n")
        with pytest.raises(InvalidParam):
            parse_config_text("n = 10\np_grid = 0.5\ngamma_grid = 0\ntrials = 0\n")

    @pytest.mark.parametrize("grid", ["p_grid = 1.0, 1.0\ngamma_grid = 0",
                                      "p_grid = 1.0\ngamma_grid = 0.1, 0.2, 0.1"])
    def test_repeated_grid_values_rejected(self, grid):
        # a repeated value would run its cell twice and count each trial twice
        with pytest.raises(InvalidParam, match="must not repeat"):
            parse_config_text(f"n = 20\n{grid}\ntrials = 2\n")

    @pytest.mark.parametrize("config, message", [
        ({"n": 1}, "n must be >= 2"),
        ({"p_grid": ()}, "must be nonempty"),
        ({"gamma_grid": (1.5,)}, "gamma values must lie in"),
        ({"algorithms": ("svd_xyz",)}, "unknown algorithms"),
        ({"metrics": ("speed",)}, "unknown metrics"),
        ({"scores": "normal"}, "unknown score kind"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
        ("n = 10\np_grid 1.0\n", "line 2: expected 'key = value'"),
        ("n = 10\nn = 12\n", "line 2: duplicate key 'n'"),
    ], ids=["n", "empty_grid", "gamma", "algorithm", "metric", "score_kind", "workers", "seed",
            "no_equals", "duplicate_key"])
    def test_invalid_config_rejected(self, config, message):
        with pytest.raises(InvalidParam, match=message):
            if isinstance(config, str):
                parse_config_text(config)
            else:
                ExperimentConfig(**{"n": 10, "p_grid": (1.0,), "gamma_grid": (0.0,), **config})

    def test_epsilon_out_of_range_rejected(self, tmp_path, capsys):
        text = BASE_CONFIG + "\nmetrics = kendall, theory\nepsilon = 0.9\n"
        with pytest.raises(InvalidParam, match="epsilon"):
            parse_config_text(text)
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert "epsilon must lie in (0, 1/2]" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


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

    def test_csv_matches_golden_file(self, tmp_path):
        out = tmp_path / "r.csv"
        write_csv(run_sweep(parse_config_text(GOLDEN_CONFIG)), str(out))
        golden = Path(__file__).parent / "data" / "sweep_golden.csv"
        assert out.read_bytes() == golden.read_bytes()

    def test_no_more_workers_than_cells(self, monkeypatch):
        started = []

        class RecordingPool:  # records the pool size and runs the cells in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        one_cell = BASE_CONFIG + "workers = 64\n"
        run_sweep(parse_config_text(one_cell))
        assert started == []
        run_sweep(parse_config_text(one_cell.replace("trials = 1", "trials = 3")))
        assert started == [3]

    def test_metric_error_is_recorded_and_earlier_columns_kept(self, monkeypatch):
        def fail(perm, truth, mset, res):
            raise DegenerateVariance("estimate has zero variance")

        monkeypatch.setitem(harness._METRICS, "correlation", fail)
        cfg = parse_config_text(BASE_CONFIG + "metrics = kendall, correlation, rmse\n")
        [row] = harness._run_cell(cfg, 0, 0, 0)
        assert row.error == "DegenerateVariance: estimate has zero variance"
        assert row.kendall == 0.0  # noiseless at p = 1, and computed before correlation
        assert row.correlation is None and row.rmse is None

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

    def test_completion_past_size_limit_ends_sweep(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(BASE_CONFIG.replace("n = 40", "n = 2001")
                        .replace("p_grid = 1.0", "p_grid = 0.01") + "completion = on\n")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == ("configuration error: dense completion "
                                           "limited to n <= 2000\n")
        assert not (tmp_path / "r.csv").exists()

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


    @pytest.mark.parametrize("text, expected", [
        ("# home,away,margin\n0,1,2\n  # indented comment\n1,2,3\n",
         {(0, 1): 2.0, (1, 2): 3.0}),
        ("0,1,2\n   \n\t\n1,2,3\n", {(0, 1): 2.0, (1, 2): 3.0}),
        ('"0","1","2"\n" 2 ",1,"3"\n', {(0, 1): 2.0, (1, 2): -3.0}),
        ("1_0,1,2\n0,1,1_0\n", {(1, 10): -2.0, (0, 1): 10.0}),
    ], ids=["comment_lines", "whitespace_lines", "quoted_fields", "underscore_digits"])
    def test_syntax_only_the_line_parser_reads(self, tmp_path, text, expected):
        path = tmp_path / "edges.csv"
        path.write_text(text)
        assert harness._load_edges(str(path), False) is None
        mset = ingest_edge_list(str(path))
        assert {(int(i), int(j)): v for i, j, v in
                zip(mset.rows, mset.cols, mset.values)} == expected

    @pytest.mark.parametrize("row, error, message", [
        ("1,2,nan", ParseError, "line 3: non-finite value"),
        ("1.0,2,3", ParseError, "line 3: invalid literal for int() with base 10: '1.0'"),
        ("1,2,3,", ParseError, "line 3: expected 3 fields, got 4"),
        ("1,2,3 # note", ParseError, "line 3: could not convert string to float: '3 # note'"),
        ("1 # note,2,3", ParseError,
         "line 3: invalid literal for int() with base 10: '1 # note'"),
        ("99999999999999999999,2,3", ParseError,
         "line 3: index does not fit in a 64-bit integer"),
        ("2,2,3", SelfLoop, "line 3: self-loop on node 2"),
    ], ids=["nan", "float_index", "trailing_comma", "inline_comment", "inline_comment_index",
            "overlong_index", "self_loop"])
    def test_rejected_row_carries_line(self, tmp_path, row, error, message):
        path = tmp_path / "edges.csv"
        path.write_text(f"# header\n0,1,2\n{row}\n3,4,5\n")
        with pytest.raises(error) as info:
            ingest_edge_list(str(path))
        assert type(info.value) is error and str(info.value) == message

    def test_error_after_multiline_quoted_field_names_its_physical_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text('0,1,"2\n"\n1,1,3\n')  # the first record spans lines 1 and 2
        with pytest.raises(SelfLoop) as info:
            ingest_edge_list(str(path))
        assert str(info.value) == "line 3: self-loop on node 1"

    def test_index_too_large_for_pair_keys(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("0,1,2\n1,9223372036854775807,3\n")
        with pytest.raises(InvalidParam, match="too large"):
            ingest_edge_list(str(path))


def _ingest_outcome(path, **kwargs):
    try:
        return ingest_edge_list(str(path), **kwargs)
    except Exception as exc:  # compared by type and message
        return exc


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got.n == want.n
    for name in ("rows", "cols", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# Rows spliced into a small valid file. The first group parses in both the
# loadtxt pass and the line parser; the rest make the loadtxt pass give up
# or fail a check, or are rejected by both.
PROBE_ROWS = [
    " 1 , 2 , 3 ", "+1,2,3", "-0,1,2", "0012,3,4", "0\t,1,2", "0,1,3.", "0,1,.5", "0,1,-.5",
    "0,1,1E5", "0,1,1e-400", "0,1,1e400", "0,1,INFINITY", "0,1,-infinity", "0,1,nan",
    "0,1,2\r", "",
    "# comment", "   ", '"0",1,2', "1_0,1,2", "0,1,1_0", "99999999999999999999,2,3",
    "9223372036854775807,1,2", "-9223372036854775808,1,2", "1.0,2,3", "0,1,2,", "0,1",
    "0,1,2 # x", "0x10,1,2", "0,1,0x1p3", "\ufeff0,1,2", "\uff11,2,3", "0,1,", ",1,2",
    "1 2,3,4", "-1,2,3", "2,2,1", "0,1,2\x00",
]


class TestIngestOracle:
    """ingest_edge_list against the same call with only the line parser reading the file."""

    @staticmethod
    def both(path, monkeypatch, **kwargs):
        got = _ingest_outcome(path, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_load_edges", lambda *args: None)
            want = _ingest_outcome(path, **kwargs)
        return got, want

    @pytest.mark.parametrize("one_indexed", [False, True])
    @pytest.mark.parametrize("n", [None, 400])
    def test_sampled_file(self, tmp_path, monkeypatch, one_indexed, n):
        rng = np.random.default_rng(11)
        i, j = rng.integers(0, 300, size=(2, 3000))
        i, j = i[i != j], j[i != j]
        v = rng.normal(size=i.size) * 10.0 ** rng.integers(-3, 4, size=i.size)
        repeat = rng.choice(i.size, size=200, replace=False)
        flip = rng.random(repeat.size) < 0.5  # repeated pairs, some reversed
        i, j, v = (np.concatenate([i, np.where(flip, j[repeat], i[repeat])]),
                   np.concatenate([j, np.where(flip, i[repeat], j[repeat])]),
                   np.concatenate([v, np.where(flip, -v[repeat], v[repeat]) / 3.0]))
        shift = int(one_indexed)
        path = tmp_path / "edges.csv"
        path.write_text("".join(f"{a + shift},{b + shift},{float(x)!r}\n"
                                for a, b, x in zip(i, j, v)))

        fast = harness._load_edges(str(path), one_indexed)
        lines = harness._parse_edge_lines(str(path), one_indexed)
        assert fast is not None
        for a, b in zip(fast, lines):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        got, want = self.both(path, monkeypatch, one_indexed=one_indexed, n=n)
        _assert_same_outcome(got, want)
        assert got.num_entries == np.unique(np.minimum(i, j) * 300 + np.maximum(i, j)).size

    @pytest.mark.parametrize("one_indexed", [False, True])
    @pytest.mark.parametrize("row", PROBE_ROWS)
    def test_probe_row(self, tmp_path, monkeypatch, row, one_indexed):
        path = tmp_path / "edges.csv"
        path.write_text(f"3,4,1.5\r\n\n{row}\n4,5,-2\n")
        _assert_same_outcome(*self.both(path, monkeypatch, one_indexed=one_indexed))
        _assert_same_outcome(*self.both(path, monkeypatch, one_indexed=one_indexed, n=8))

    @pytest.mark.parametrize("text", ["", "\n\n", "0,1,2", "1,0,2\n0,1,2\n"])
    @pytest.mark.parametrize("n", [None, 1, 3])
    def test_small_files(self, tmp_path, monkeypatch, text, n):
        path = tmp_path / "edges.csv"
        path.write_text(text)
        _assert_same_outcome(*self.both(path, monkeypatch, n=n))

    def test_missing_file(self, tmp_path, monkeypatch):
        got, want = self.both(tmp_path / "missing.csv", monkeypatch)
        assert isinstance(want, FileNotFoundError)
        _assert_same_outcome(got, want)

    def test_mutated_files(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(21)
        path = tmp_path / "edges.csv"
        outcomes, fast = set(), 0
        for _ in range(2000):
            path.write_text(_mutated_csv(rng))
            kwargs = {"one_indexed": bool(rng.integers(2)), "n": rng.choice([None, 9])}
            fast += harness._load_edges(str(path), kwargs["one_indexed"]) is not None
            got, want = self.both(path, monkeypatch, **kwargs)
            _assert_same_outcome(got, want)
            outcomes.add(type(want).__name__)
        assert fast >= 50  # the loadtxt pass reads about one file in twenty itself
        assert {"SkewSparseMatrix", "ParseError", "SelfLoop", "InvalidParam"} <= outcomes


# Tokens spliced into small valid files: comments, quotes, whitespace, syntax
# only the line parser reads, values past the float range or near its top
# (+-1.7e308 pass the value range only when they cancel), an over-long
# integer and a stray comma.
FUZZ_TOKENS = ["#", "# note", '"', '"7"', " ", "\t", "1_0", "+3", "0x1", "1e400", "nan",
               "1.7e308", "-1.7e308", "99999999999999999999", ","]


def _mutated_csv(rng: np.random.Generator) -> str:
    """Two to six rows over nodes 1..4, with one or two tokens spliced in.

    A token replaces a field (half the time), goes before or after one, or
    takes a line of its own. Nodes from 1 keep the rows valid when read
    one-indexed, and few nodes make repeated pairs common.
    """
    k = int(rng.integers(2, 7))
    a = rng.integers(1, 5, size=k)
    b = (a + rng.integers(0, 3, size=k)) % 4 + 1  # never a
    v = rng.normal(size=k) * 10.0 ** rng.integers(-2, 3, size=k)
    rows = [[str(x), str(y), repr(float(z))] for x, y, z in zip(a, b, v)]
    for _ in range(rng.integers(1, 3)):
        token = FUZZ_TOKENS[rng.integers(len(FUZZ_TOKENS))]
        how = rng.choice(["replace", "replace", "before", "after", "line"])
        if how == "line":
            rows.insert(int(rng.integers(len(rows) + 1)), [token])
            continue
        row = rows[int(rng.integers(len(rows)))]
        field = int(rng.integers(len(row)))
        row[field] = {"replace": token, "before": token + row[field],
                      "after": row[field] + token}[how]
    return "".join(",".join(row) + "\n" for row in rows)


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


def _prune_oracle(m, min_degree):
    """prune_and_restrict on the whole node range, with O(n) arrays throughout."""
    degree = np.bincount(m.rows, minlength=m.n) + np.bincount(m.cols, minlength=m.n)
    keep = degree >= min_degree
    if not keep.any():
        return None
    kept = m.restrict(keep)
    main, largest = kept.largest_component()
    messages = []
    if not keep.all():
        messages.append(f"pruning {np.count_nonzero(~keep)} nodes with degree < {min_degree}")
    if main.n < kept.n:
        messages.append("graph disconnected after pruning; keeping largest component "
                        f"({main.n} of {kept.n} nodes)")
    return main, np.flatnonzero(keep)[largest], messages


class TestPruneUntouchedNodes:
    """With n > 2m, pruning works on the touched nodes only and matches the whole-range oracle."""

    CASES = [
        # (n, rows, cols): touched nodes with gaps, node 0 untouched, no gap
        # below the last touched node, no entries, and single edges only.
        (12, [1, 1, 2, 6], [2, 3, 3, 9]),
        (40, [3, 3, 7, 20, 21], [7, 20, 9, 21, 30]),
        (9, [0, 1], [1, 2]),
        (7, [], []),
        (30, [2, 5, 11], [4, 8, 29]),
    ]

    @pytest.mark.parametrize("n, rows, cols", CASES)
    @pytest.mark.parametrize("min_degree", [0, 1, 2])
    def test_matches_whole_range_oracle(self, caplog, n, rows, cols, min_degree):
        m = SkewSparseMatrix(n, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                             np.arange(1.0, len(rows) + 1))
        assert m.n > 2 * m.num_entries
        want = _prune_oracle(m, min_degree)
        if want is None:
            with pytest.raises(InvalidParam, match="no nodes survive"):
                prune_and_restrict(m, min_degree)
            return
        want_main, want_ids, want_log = want
        caplog.clear()
        main, ids = prune_and_restrict(m, min_degree)
        assert [r.getMessage() for r in caplog.records] == want_log
        assert main.n == want_main.n and main.is_connected
        assert np.array_equal(ids, want_ids)
        for name in ("rows", "cols", "values"):
            assert np.array_equal(getattr(main, name), getattr(want_main, name))

    def test_random_sparse_graphs(self, rng, caplog):
        for _ in range(20):
            n = int(rng.integers(50, 400))
            i, j = rng.integers(0, n, size=(2, int(rng.integers(1, n // 3))))
            m = SkewSparseMatrix.from_pairs(n, i[i != j], j[i != j], rng.standard_normal(
                int(np.count_nonzero(i != j))))
            for min_degree in (0, 1, 2):
                want = _prune_oracle(m, min_degree)
                if want is None:
                    continue
                want_main, want_ids, want_log = want
                caplog.clear()
                main, ids = prune_and_restrict(m, min_degree)
                assert [r.getMessage() for r in caplog.records] == want_log
                assert np.array_equal(ids, want_ids)
                assert np.array_equal(main.rows, want_main.rows)
                assert np.array_equal(main.cols, want_main.cols)


def test_write_csv_excludes_timing_by_default(tmp_path):
    cfg = parse_config_text(BASE_CONFIG)
    rows = run_sweep(cfg)
    out = tmp_path / "r.csv"
    write_csv(rows, str(out))
    header = out.read_text().splitlines()[0]
    assert "runtime_ms" not in header
    write_csv(rows, str(out), include_timing=True)
    assert "runtime_ms" in out.read_text().splitlines()[0]


def _tiny_instance(rng: np.random.Generator) -> SkewSparseMatrix:
    """A measurement set that validation accepts: 2 to 13 nodes, an empty, sparse
    or complete graph, zero or tied values, all scaled by 10^k, |k| <= 300."""
    n = int(rng.integers(2, 14))
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < rng.choice([0.0, rng.random(), 1.0])
    values = rng.standard_normal(int(keep.sum()))
    kind = rng.integers(4)
    if kind == 1:
        values[rng.random(values.size) < 0.5] = 0.0
    elif kind == 2:
        values = np.round(values)  # few distinct values, many ties
    elif kind == 3:
        values = np.abs(values[:1]).repeat(values.size)  # all tied
    scale = 10.0 ** rng.choice([-300, -150, 0, 150, 300])
    return SkewSparseMatrix(n, iu[keep], ju[keep], values * scale)


def test_fuzz_tiny_inputs_never_break_complete_and_rank():
    # Every validated input either raises an SvdRankError or yields, per
    # algorithm, finite scores or an SvdRankError; no overflow or invalid
    # value along the way.
    rng = np.random.default_rng(19)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(400):
            m = _tiny_instance(rng)
            completion = CompletionConfig() if rng.random() < 0.3 else None
            try:
                results = complete_and_rank(m, ALGORITHMS, completion, seed=0)
            except SvdRankError:
                continue
            for name, result, _ in results:
                if not isinstance(result, SvdRankError):
                    assert np.isfinite(result.score_estimate).all(), (name, m.n, m.values)
