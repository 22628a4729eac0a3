"""The exact ValueError text of each input check that no other test reaches:
the text parsers, the graph and hypergraph builders, the generators, the
experiment and construction entry points, the sublist size rule of the lll
pipeline and its resampling cap, and the floor rule on a None number or
cap.
"""

from __future__ import annotations

import pytest

from dyncolor import (
    augment,
    build_graph,
    build_hypergraph,
    chi_exact,
    dynamic_coloring_via_sublists,
    experiment_random_graphs,
    generate,
    is_k_choosable,
    parse_coloring,
    parse_graph,
    parse_hypergraph,
    parse_lists,
    resample_until_clear,
    sample_sublists,
    sublist_condition_holds,
)
from dyncolor.cli import main

TRIANGLE = build_graph(3, [(0, 1), (1, 2), (0, 2)])
MIXED_LISTS = [[1, 2], [1, 2, 3], [1, 2]]


def _lll_experiment(**sizes):
    # every trial of this config is skipped_low_degree (see test_lll_sizes_checked_before_any_trial)
    return experiment_random_graphs(n=6, p=0.2, r=3, trials=2, seed=1, mode="lll", **sizes)


CASES = [
    ("graph-counts", lambda: parse_graph("p edge x 1\n"),
     "line 1: non-integer counts in 'p edge x 1'"),
    ("graph-edge-line", lambda: parse_graph("p edge 2 1\nf 1 2\n"),
     "line 2: expected 'e <u> <v>', got 'f 1 2'"),
    ("graph-endpoint", lambda: parse_graph("p edge 2 1\ne 1 y\n"),
     "line 2: non-integer endpoint in 'e 1 y'"),
    ("graph-self-loop", lambda: parse_graph("p edge 2 1\ne 2 2\n"),
     "line 2: self-loop at 2"),
    ("hyper-empty", lambda: parse_hypergraph("c only a comment\n"),
     "empty hypergraph input"),
    ("hyper-header", lambda: parse_hypergraph("h 3\n"),
     "line 1: expected 'h <n> <m>', got 'h 3'"),
    ("hyper-counts", lambda: parse_hypergraph("h 3 z\n"),
     "line 1: non-integer counts in 'h 3 z'"),
    ("hyper-vertex", lambda: parse_hypergraph("h 3 1\n1 two\n"),
     "line 2: non-integer vertex id in '1 two'"),
    ("lists-json", lambda: parse_lists("{", 2),
     "list assignment is not valid JSON: Expecting property name enclosed in double quotes:"
     " line 1 column 2 (char 1)"),
    ("lists-key", lambda: parse_lists('{"a": [1]}', 2),
     "non-integer vertex key 'a'"),
    ("lists-empty", lambda: parse_lists('{"0": []}', 2),
     "list for vertex 0 must be a nonempty array"),
    ("coloring-json", lambda: parse_coloring("[1,", 2),
     "coloring is not valid JSON: Expecting value: line 1 column 4 (char 3)"),
    ("coloring-array", lambda: parse_coloring('{"0": 1}', 2),
     "coloring must be a JSON array"),
    ("hypergraph-n", lambda: build_hypergraph(-1, []),
     "vertex count must be nonnegative, got -1"),
    ("hypergraph-vertex", lambda: build_hypergraph(2, [[0, 2]]),
     "edge vertex 2 out of range for n=2"),
    ("bipartite-parts", lambda: generate("complete_bipartite", a=-1, b=2),
     "part sizes must be nonnegative"),
    ("gnp-p", lambda: generate("gnp", n=3, p=1.5),
     "p must lie in [0, 1], got 1.5"),
    ("experiment-exact-cap",
     lambda: experiment_random_graphs(n=13, p=0.5, r=2, trials=1, seed=0, mode="exact"),
     "n=13 exceeds cap 12; pass max_n to override"),
    ("experiment-n",
     lambda: experiment_random_graphs(n=0, p=0.5, r=2, trials=1, seed=0, mode="greedy"),
     "n must be >= 1, got 0"),
    ("experiment-n-none",
     lambda: experiment_random_graphs(n=None, p=0.5, r=2, trials=1, seed=0, mode="greedy"),
     "n must be >= 1, got None"),
    ("experiment-trials",
     lambda: experiment_random_graphs(10, 2, trials=-1, seed=0, mode="greedy", p=0.3),
     "trials must be >= 0, got -1"),
    ("experiment-p-and-d",
     lambda: experiment_random_graphs(10, 2, trials=1, seed=0, mode="greedy", p=0.3, d=3),
     "need exactly one of p, d"),
    ("chi-r-none", lambda: chi_exact(TRIANGLE, "dynamic", None),
     "r must be >= 1, got None"),
    ("choosable-k-none", lambda: is_k_choosable(TRIANGLE, None),
     "k must be >= 1, got None"),
    ("chi-cap-none", lambda: chi_exact(TRIANGLE, max_n=None),
     "max_n must be >= 0, got None"),
    ("choosable-cap-none", lambda: is_k_choosable(TRIANGLE, 2, max_k=None),
     "max_k must be >= 0, got None"),
    ("experiment-exact-n-none",
     lambda: experiment_random_graphs(n=None, p=0.5, r=2, trials=1, seed=0, mode="exact"),
     "n must be >= 1, got None"),
    ("sublist-condition-none", lambda: sublist_condition_holds(None, 5, 2, 1, 1),
     "all parameters must be positive"),
    ("augment-empty", lambda: augment(build_hypergraph(0, []), 2, 2, 0),
     "base hypergraph needs at least one vertex"),
    ("augment-k-below-r", lambda: augment(build_hypergraph(4, [[0, 1], [2, 3]]), 3, 2, 0),
     "k must be >= r, got k=2 r=3"),
    ("pipeline-mixed-sizes", lambda: dynamic_coloring_via_sublists(TRIANGLE, MIXED_LISTS, 1, 2, 0),
     "base list sizes are not uniform: 2 to 3"),
    ("experiment-lll-slack", lambda: _lll_experiment(slack=0),
     "slack 0 below the floor r-1 = 2"),
    ("experiment-lll-sublist-size", lambda: _lll_experiment(sublist_size=0),
     "sublist size must be >= 1, got 0"),
    ("experiment-lll-max-iters", lambda: _lll_experiment(max_iters=-5),
     "max_iters must be >= 0, got -5"),
    ("sample-explicit-slack", lambda: sample_sublists([[1, 2], [1, 2]], 2, seed=0, r=2, slack=5),
     "list at vertex 0 has 2 colors, needs >= 7 (sublist 2 + slack 5 + r - 2)"),
    ("resample-max-iters",
     lambda: resample_until_clear(TRIANGLE, sample_sublists([[1, 2, 3]] * 3, 1, 0, r=2), -5),
     "max_iters must be >= 0, got -5"),
]


@pytest.mark.parametrize("call,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_input_error_text(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def _solve_lll(tmp_path, capsys, graph_text, lists_text, *extra):
    graph = tmp_path / "g.txt"
    graph.write_text(graph_text, encoding="utf-8")
    lists = tmp_path / "l.json"
    lists.write_text(lists_text, encoding="utf-8")
    argv = ["solve", "--graph", str(graph), "--lists", str(lists), "--mode", "lll", *extra]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    return captured.err


def test_cli_lll_needs_uniform_list_sizes(tmp_path, capsys):
    # the text of the API on the same lists (case pipeline-mixed-sizes)
    err = _solve_lll(
        tmp_path, capsys, "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n",
        '{"0": [1, 2], "1": [1, 2, 3], "2": [1, 2]}', "--r", "2",
    )
    assert err == "error: base list sizes are not uniform: 2 to 3\n"


def test_cli_lll_default_sublist_size_below_one(tmp_path, capsys):
    # K_4 with 2-color lists at r = 3: the default size 2 - 2r + 3 is -1
    k4 = "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
    lists = '{"0": [1, 2], "1": [1, 2], "2": [1, 2], "3": [1, 2]}'
    err = _solve_lll(tmp_path, capsys, k4, lists, "--r", "3")
    assert err == "error: base list size 2 leaves no sublist at r = 3, slack 2\n"


def test_cli_lll_negative_max_iters(tmp_path, capsys):
    c4 = "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
    lists = '{"0": [1, 5, 6], "1": [1, 2, 6], "2": [1, 5, 7], "3": [2, 6, 9]}'
    err = _solve_lll(tmp_path, capsys, c4, lists, "--r", "2", "--max-iters", "-5")
    assert err == "error: max_iters must be >= 0, got -5\n"


def test_max_iters_zero_checks_without_resampling():
    state = sample_sublists([[1, 2, 3]] * 3, 2, 0, r=2)
    drawn = list(state.sublists)
    state, log = resample_until_clear(TRIANGLE, state, 0)
    assert (log.status, log.iterations, state.sublists) == ("cap_reached", 0, drawn)


def test_lll_sizes_checked_before_any_trial(capsys):
    assert _lll_experiment()["summary"]["attempted"] == 0  # no trial runs
    base = ["experiment", "--n", "6", "--p", "0.2", "--r", "3", "--trials", "2", "--seed", "1"]
    for flag, message in (
        ("--slack", "slack 0 below the floor r-1 = 2"),
        ("--sublist-size", "sublist size must be >= 1, got 0"),
    ):
        code = main(base + ["--mode", "lll", flag, "0"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_lll_max_iters_checked_before_any_trial(capsys):
    argv = ["experiment", "--n", "6", "--p", "0.2", "--r", "3", "--trials", "2", "--seed", "1"]
    code = main(argv + ["--mode", "lll", "--max-iters", "-5"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: max_iters must be >= 0, got -5\n")
