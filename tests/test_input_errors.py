"""The exact ValueError text of each input check that no other test reaches:
the text parsers, the graph and hypergraph builders, the generators, the
experiment and construction entry points, and the CLI's lll list sizes.
"""

from __future__ import annotations

import pytest

from dyncolor import (
    augment,
    build_hypergraph,
    experiment_random_graphs,
    generate,
    parse_coloring,
    parse_graph,
    parse_hypergraph,
    parse_lists,
)
from dyncolor.cli import main

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
    ("augment-empty", lambda: augment(build_hypergraph(0, []), 2, 2, 0),
     "base hypergraph needs at least one vertex"),
]


@pytest.mark.parametrize("call,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_input_error_text(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_cli_lll_needs_uniform_list_sizes(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", encoding="utf-8")
    lists = tmp_path / "l.json"
    lists.write_text('{"0": [1, 2], "1": [1, 2, 3], "2": [1, 2]}', encoding="utf-8")
    argv = ["solve", "--graph", str(graph), "--lists", str(lists), "--mode", "lll", "--r", "2"]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: lll mode needs uniform base list sizes\n"
