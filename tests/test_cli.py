"""``svdrank rank`` and ``svdrank complete`` end to end: output format, options and exit codes."""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest

from svdrank import harness, linalg
from svdrank.baselines import complete_matrix
from svdrank.cli import main
from svdrank.harness import ingest_edge_list, prune_and_restrict
from svdrank.metrics import count_upsets

SCORES = np.array([3.1, 0.4, 2.2, 5.0, 1.7, 4.3, 0.9, 2.8])


def edge_rows(shift: int = 0) -> list[str]:
    """Rows over nodes 0..7 plus a separate pair {10, 11}; nodes 8 and 9 never appear.

    Node 7 hangs on node 0 alone, so ``--min-degree 2`` drops it with the pair.
    """
    rows = []
    for i in range(7):
        for j in range(i + 1, 7):
            d = float(SCORES[i] - SCORES[j])
            if (i + j) % 3 == 0:
                rows.append((j, i, -d))  # reversed orientation
            elif (i + j) % 3 == 1:
                rows += [(i, j, 0.25 * d), (j, i, -0.75 * d)]  # repeated pair
            else:
                rows.append((i, j, d))
    rows += [(7, 0, float(SCORES[7] - SCORES[0])), (10, 11, 1.5), (11, 10, -0.5)]
    return [f"{i + shift},{j + shift},{v!r}" for i, j, v in rows]


@pytest.fixture
def edges(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("\n".join(edge_rows()) + "\n")
    return path


def rank(capsys, *argv):
    code = main(["rank", *argv])
    out, err = capsys.readouterr()
    return code, out, err


def parse(out: str):
    header, columns, *body = out.splitlines()
    assert header.startswith("# method=") and columns == "position,item,score"
    fields = dict(kv.split("=", 1) for kv in header[2:].split())
    table = np.array([[float(x) for x in line.split(",")] for line in body])
    return fields, table[:, 0].astype(int), table[:, 1].astype(int), table[:, 2]


@pytest.mark.parametrize("algorithm", ["svd_rs", "svd_nrs", "rowsum", "least_squares"])
def test_rank_body_and_upsets_header(capsys, edges, algorithm):
    code, out, _ = rank(capsys, "--input", str(edges), "--algorithm", algorithm)
    assert code == 0
    fields, positions, items, scores = parse(out)
    assert fields["method"] == algorithm and fields["n"] == "8"
    assert list(positions) == list(range(8))
    assert sorted(items) == list(range(8))
    pruned, mapping = prune_and_restrict(ingest_edge_list(str(edges)))
    estimate = np.empty(pruned.n)
    estimate[np.searchsorted(mapping, items)] = scores
    assert int(fields["upsets"]) == count_upsets(pruned, estimate)
    assert fields["upsets"] == "0"  # the fixture's measurements are noiseless


def test_one_indexed_shifts_ids_and_positions(capsys, edges, tmp_path):
    shifted = tmp_path / "edges1.csv"
    shifted.write_text("\n".join(edge_rows(shift=1)) + "\n")
    _, out0, _ = rank(capsys, "--input", str(edges))
    code, out1, _ = rank(capsys, "--input", str(shifted), "--one-indexed")
    assert code == 0
    fields0, pos0, items0, scores0 = parse(out0)
    fields1, pos1, items1, scores1 = parse(out1)
    assert fields1 == fields0
    assert list(pos1) == list(pos0 + 1) and list(items1) == list(items0 + 1)
    assert np.array_equal(scores1, scores0)


def test_min_degree_drops_pendant_node(capsys, edges):
    code, out, _ = rank(capsys, "--input", str(edges), "--min-degree", "2")
    assert code == 0
    fields, _, items, _ = parse(out)
    assert fields["n"] == "7" and sorted(items) == list(range(7))


def test_exit_codes(capsys, edges, tmp_path):
    loop = tmp_path / "loop.csv"
    loop.write_text("0,1,2\n1,2,1\n2,2,4\n")
    code, out, err = rank(capsys, "--input", str(loop))
    assert code == 3 and out == "" and "line 3" in err
    code, _, err = rank(capsys, "--input", str(tmp_path / "missing.csv"))
    assert code == 3 and "input error" in err
    code, _, err = rank(capsys, "--input", str(edges), "--min-degree", "100")
    assert code == 2 and "no nodes survive pruning" in err
    zero = tmp_path / "zero.csv"
    zero.write_text("0,1,0\n")
    code, _, err = rank(capsys, "--input", str(zero))
    assert code == 4 and err.startswith("DegenerateSpectrum")


def test_huge_index_exits_with_a_message(capsys, tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("0,1,2\n1,99999999999999999999,3\n")  # does not fit in int64
    code, out, err = rank(capsys, "--input", str(path))
    assert code == 3 and out == ""
    assert err == "input error: line 2: index does not fit in a 64-bit integer\n"
    path.write_text("0,1,2\n1,9223372036854775807,3\n")  # fits, but n * n does not
    code, out, err = rank(capsys, "--input", str(path))
    assert code == 2 and out == "" and "too large" in err


def test_large_index_far_above_row_count_ranks_in_small_memory(capsys, tmp_path):
    # n = 3037000499 fits the pair keys, but any array of length n takes 24 GB.
    path = tmp_path / "far.csv"
    path.write_text("0,1,2\n3037000498,3037000497,1\n")
    tracemalloc.start()
    try:
        code, out, _ = rank(capsys, "--input", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    fields, positions, items, scores = parse(out)
    assert fields["n"] == "2" and list(items) == [0, 1] and list(scores) == [1.0, -1.0]
    assert peak < 8 * 3037000499 // 1000


def test_rank_labels_components_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "connected.csv"
    path.write_text("\n".join(edge_rows()[:-2]) + "\n")  # nodes 0..7, connected
    labels, calls = linalg.component_labels, []

    def counted(H):
        calls.append(H.n)
        return labels(H)

    for name, module in list(sys.modules.items()):
        if name.startswith("svdrank.") and getattr(module, "component_labels", None) is labels:
            monkeypatch.setattr(module, "component_labels", counted)
    code, out, _ = rank(capsys, "--input", str(path))
    assert code == 0 and parse(out)[0]["n"] == "8"
    assert calls == [8]


def test_completion_size_limit_exits_before_ranking(capsys, tmp_path, monkeypatch):
    path = tmp_path / "path.csv"
    path.write_text("".join(f"{i},{i + 1},1.0\n" for i in range(2000)))  # 2001 nodes
    calls = []
    run_algorithm = harness._run_algorithm
    monkeypatch.setattr(harness, "_run_algorithm",
                        lambda *args: calls.append(args[0]) or run_algorithm(*args))
    code, out, err = rank(capsys, "--input", str(path), "--completion")
    assert code == 2 and out == ""
    assert err == "configuration error: dense completion limited to n <= 2000\n"
    assert calls == []


def test_complete_writes_upper_triangle(capsys, edges):
    code = main(["complete", "--input", str(edges)])
    out, _ = capsys.readouterr()
    assert code == 0
    header, *body = out.splitlines()
    comp = complete_matrix(ingest_edge_list(str(edges)))
    n = comp.matrix.shape[0]
    assert n == 12
    assert header == (f"# converged={comp.converged} iterations={comp.iterations} "
                      f"effective_rank={comp.effective_rank}")
    assert comp.converged and comp.effective_rank >= 2
    iu, ju = np.triu_indices(n, 1)
    assert len(body) == n * (n - 1) // 2
    for line, i, j in zip(body, iu, ju):
        assert line == f"{i},{j},{format(comp.matrix[i, j], '.12g')}"


def test_complete_max_iter_reports_not_converged(capsys, edges):
    code = main(["complete", "--input", str(edges), "--max-iter", "1"])
    header = capsys.readouterr().out.splitlines()[0]
    assert code == 0
    assert header.startswith("# converged=False iterations=1 ")
