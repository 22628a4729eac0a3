from __future__ import annotations

import inspect
import json
import sys

import pytest

from dyncolor import (
    bounds,
    choosability,
    coloring,
    constructions,
    experiments,
    generate,
    serialize_graph,
)
from dyncolor.cli import _emit, _keywords, build_parser, main

C4 = "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
K4 = "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
TWO_TRIPLES = "h 4 2\n1 2 3\n2 3 4\n"
PAIR_MATCHING = "h 4 2\n1 2\n3 4\n"


@pytest.fixture
def ws(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_check_valid_and_invalid(ws, capsys):
    g = ws("g.txt", C4)
    good = ws("good.json", "[1, 2, 1, 2]")
    bad = ws("bad.json", "[1, 1, 2, 2]")
    code, out, _ = run_json(capsys, ["check", "--graph", g, "--coloring", good])
    assert code == 0 and out["valid"] is True
    code, out, _ = run_json(capsys, ["check", "--graph", g, "--coloring", bad])
    assert code == 1 and out["valid"] is False


def test_check_dynamic_mode(ws, capsys):
    g = ws("g.txt", C4)
    c = ws("c.json", "[1, 2, 1, 2]")
    code, out, _ = run_json(
        capsys, ["check", "--graph", g, "--coloring", c, "--mode", "dynamic", "--r", "2"]
    )
    assert code == 1 and out["valid"] is False  # opposite corners repeat colors
    c3 = ws("c3.json", "[1, 2, 3, 4]")
    code, out, _ = run_json(
        capsys, ["check", "--graph", g, "--coloring", c3, "--mode", "dynamic", "--r", "2"]
    )
    assert code == 0 and out["valid"] is True


def test_solve_exact(ws, capsys):
    g = ws("g.txt", C4)
    lists = ws("l.json", json.dumps({str(v): [1, 2, 3, 4] for v in range(4)}))
    code, out, _ = run_json(
        capsys, ["solve", "--graph", g, "--lists", lists, "--r", "2"]
    )
    assert code == 0
    assert out["target"] == "dynamic"
    assert sorted(out["coloring"]) == [1, 2, 3, 4]  # 2-dynamic C4 needs all four
    short = ws("short.json", json.dumps({str(v): [1, 2, 3] for v in range(4)}))
    code, out, _ = run_json(
        capsys, ["solve", "--graph", g, "--lists", short, "--r", "2"]
    )
    assert code == 1 and out["coloring"] is None


def test_solve_exact_proper_default(ws, capsys):
    g = ws("g.txt", C4)
    lists = ws("l.json", json.dumps({str(v): [1, 2] for v in range(4)}))
    code, out, _ = run_json(capsys, ["solve", "--graph", g, "--lists", lists])
    assert code == 0 and out["coloring"] == [1, 2, 1, 2]


def test_solve_greedy(ws, capsys):
    g = ws("g.txt", K4)
    lists = ws("l.json", json.dumps({str(v): list(range(1, 8)) for v in range(4)}))
    code, out, _ = run_json(
        capsys, ["solve", "--graph", g, "--lists", lists, "--mode", "greedy", "--r", "2"]
    )
    assert code == 0 and out["coloring"] == [1, 2, 3, 4]


def test_solve_lll_frozen(ws, capsys):
    g = ws("g.txt", C4)
    lists = ws(
        "l.json",
        json.dumps({"0": [1, 5, 6], "1": [1, 2, 6], "2": [1, 5, 7], "3": [2, 6, 9]}),
    )
    code, out, _ = run_json(
        capsys,
        ["solve", "--graph", g, "--lists", lists, "--mode", "lll", "--r", "2", "--seed", "0"],
    )
    assert code == 0
    assert out["sublist_size"] == 2  # base 3 minus 2r-3 leaves slack exactly r-1
    assert out["status"] == "ok"
    assert out["coloring"] == [5, 1, 7, 6]
    assert out["log"]["iterations"] == 1


def test_solve_lll_cap(ws, capsys):
    g = ws("g.txt", "p edge 5 10\n" + "".join(
        f"e {u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6)
    ))
    lists = ws("l.json", json.dumps({str(v): [1, 2, 3, 4, 5, 6] for v in range(5)}))
    code, out, _ = run_json(
        capsys,
        ["solve", "--graph", g, "--lists", lists, "--mode", "lll", "--r", "2",
         "--seed", "3", "--sublist-size", "5"],
    )
    assert code == 1
    assert out["status"] == "cap_reached"
    assert out["log"]["iterations"] == 70
    assert out["coloring"] is None


def test_solve_lll_sublist_size_zero_is_an_error(ws, capsys):
    # an explicit 0 reaches the pipeline's check instead of the default size
    g = ws("g.txt", K4)
    lists = ws("l.json", json.dumps({str(v): list(range(1, 10)) for v in range(4)}))
    argv = ["solve", "--graph", g, "--lists", lists, "--mode", "lll", "--r", "2"]
    code, out, err = run(capsys, argv + ["--sublist-size", "0"])
    assert code == 2 and out == ""
    assert err == "error: sublist size must be >= 1, got 0\n"
    _, out, _ = run_json(capsys, argv)
    assert out["sublist_size"] == 4  # the default: min(max degree 3 + 1, base 9 - 2r + 3)


def test_solve_empty_graph_every_mode(ws, capsys):
    g = ws("g.txt", "p edge 0 0\n")
    lists = ws("l.json", "{}")
    for mode in ("exact", "greedy", "lll"):
        code, out, _ = run_json(
            capsys, ["solve", "--graph", g, "--lists", lists, "--mode", mode, "--r", "2"]
        )
        assert code == 0 and out["coloring"] == []
    assert out["status"] == "ok" and out["sublist_size"] is None  # no lists, no size


def test_solve_lll_sublist_size_zero_on_empty_graph_is_an_error(ws, capsys):
    g = ws("g.txt", "p edge 0 0\n")
    lists = ws("l.json", "{}")
    argv = ["solve", "--graph", g, "--lists", lists, "--mode", "lll", "--r", "2"]
    code, out, err = run(capsys, argv + ["--sublist-size", "0"])
    assert code == 2 and out == ""
    assert err == "error: sublist size must be >= 1, got 0\n"
    code, out, _ = run_json(capsys, argv + ["--sublist-size", "3"])
    assert code == 0 and out["sublist_size"] == 3 and out["coloring"] == []


def test_chi_modes(ws, capsys):
    g = ws("g.txt", C4)
    code, out, _ = run_json(capsys, ["chi", "--graph", g])
    assert code == 0 and out["chi"] == 2
    code, out, _ = run_json(capsys, ["chi", "--graph", g, "--mode", "dynamic", "--r", "2"])
    assert code == 0 and out["chi"] == 4
    h = ws("h.txt", TWO_TRIPLES)
    code, out, _ = run_json(capsys, ["chi", "--hypergraph", h, "--mode", "strong", "--r", "2"])
    assert code == 0 and out["chi"] == 2


def test_choosable_modes(ws, capsys):
    g = ws("g.txt", C4)
    code, out, _ = run_json(capsys, ["choosable", "--graph", g, "--k", "2"])
    assert code == 0 and out["choosable"] is True
    code, out, _ = run_json(
        capsys, ["choosable", "--graph", g, "--k", "3", "--mode", "dynamic", "--r", "2"]
    )
    assert code == 0 and out["choosable"] is False
    h = ws("h.txt", TWO_TRIPLES)
    code, out, _ = run_json(
        capsys, ["choosable", "--hypergraph", h, "--k", "2", "--mode", "strong", "--r", "2"]
    )
    assert code == 0 and out["choosable"] is True


def test_construct(ws, capsys):
    h = ws("h.txt", PAIR_MATCHING)
    code, out, _ = run_json(
        capsys,
        ["construct", "--hypergraph", h, "--r", "2", "--k", "2", "--max-n", "24"],
    )
    assert code == 0
    rep = out["report"]
    assert rep["strong_chromatic"] == 2
    assert rep["dynamic_chromatic"] == 4
    assert rep["lifted_valid"] and rep["upper_bound_holds"]


def test_bounds(capsys):
    code, out, _ = run_json(
        capsys, ["bounds", "--Delta", "24", "--delta", "24", "--r", "2", "--l", "1", "--s", "1"]
    )
    assert code == 0
    ids = [e["id"] for e in out["report"]["results"]]
    assert "sublist_degree" in ids and "triangle_free" in ids
    sub = next(e for e in out["report"]["results"] if e["id"] == "sublist_degree")
    assert sub["applicable"] is True and sub["bound"] == 2


def test_bounds_overflow_exits_2(capsys):
    code, out, err = run(capsys, ["bounds", "--Delta", "10", "--delta", "10", "--r", "47"])
    assert code == 2 and out == ""
    assert err.startswith("error: entry almost_regular overflows") and err.count("\n") == 1
    code, out, _ = run_json(capsys, ["bounds", "--Delta", "10", "--delta", "10", "--r", "46"])
    assert code == 0 and out["report"]["inputs"]["r"] == 46


def test_bounds_degree_below_one_exits_2(capsys):
    argv = ["bounds", "--Delta", "0.5", "--delta", "0.5", "--r", "2", "--l", "1", "--s", "1"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: degrees must be >= 1, got min degree 0.5\n"


def test_experiment(capsys):
    argv = [
        "experiment", "--n", "10", "--p", "0.4", "--r", "2",
        "--trials", "3", "--seed", "5", "--mode", "greedy",
    ]
    code, out, _ = run_json(capsys, argv)
    assert code == 0
    assert out["report"]["summary"]["success_rate"] == 1.0
    assert len(out["report"]["trials"]) == 3


@pytest.mark.parametrize(
    "minimal, rest, function, skip",
    [
        (["chi", "--graph", "g"], ["--max-n", "5"], coloring.chi_exact, ("graph", "hypergraph")),
        (
            ["choosable", "--graph", "g", "--k", "2"],
            ["--max-n", "5", "--max-k", "3"],
            choosability.is_k_choosable,
            ("graph", "hypergraph"),
        ),
        (
            ["construct", "--hypergraph", "h", "--r", "2", "--k", "2"],
            ["--max-n", "5"],
            constructions.construction_report,
            ("hypergraph",),
        ),
        (
            ["bounds", "--Delta", "3", "--delta", "2", "--r", "2"],
            ["--l", "1", "--s", "1", "--n", "9", "--p", "0.5", "--f", "1", "--ratio-cap", "2"],
            bounds.bounds_report,
            (),
        ),
        (
            ["experiment", "--n", "5", "--r", "2", "--trials", "1", "--mode", "exact"],
            ["--p", "0.5", "--d", "2", "--sublist-size", "2", "--slack", "1", "--max-iters", "3",
             "--max-n", "5"],
            experiments.experiment_random_graphs,
            (),
        ),
    ],
    ids=["chi", "choosable", "construct", "bounds", "experiment"],
)
def test_flags_bind_to_the_library_keywords(minimal, rest, function, skip):
    # each command hands its flags to one library call by name, so a dest that
    # names no keyword fails here without running a search
    signature = inspect.signature(function)
    instance = (None,) if skip else ()  # a command that reads an instance passes it first
    parser = build_parser()
    given = _keywords(parser.parse_args(minimal), *skip)
    # an omitted cap is absent, so the library's own default applies
    assert not {"max_n", "max_k"} & set(given)
    signature.bind(*instance, **given)
    signature.bind(*instance, **_keywords(parser.parse_args(minimal + rest), *skip))


def test_cap_defaults_are_the_librarys(ws, capsys):
    c13 = ws("c13.txt", serialize_graph(generate("cycle", n=13)))
    c9 = ws("c9.txt", serialize_graph(generate("cycle", n=9)))
    k33 = ws("k33.txt", serialize_graph(generate("complete_bipartite", a=3, b=3)))
    base = ws("base.txt", "h 7 4\n1 2\n2 3\n3 4\n5 6\n")
    for argv, line in [
        (["chi", "--graph", c13], "n=13 exceeds cap 12; pass max_n"),
        (["choosable", "--graph", c9, "--k", "3"], "n=9 exceeds cap 8; pass max_n"),
        (["choosable", "--graph", k33, "--k", "5"], "k=5 exceeds cap 4; pass max_k"),
        (
            ["construct", "--hypergraph", base, "--r", "3", "--k", "3", "--seed", "4"],
            "n=22 exceeds cap 12; pass max_n",
        ),
        (
            ["experiment", "--mode", "exact", "--n", "13", "--p", "0.5", "--r", "2", "--trials", "1"],
            "n=13 exceeds cap 12; pass max_n",
        ),
    ]:
        assert run(capsys, argv) == (2, "", f"error: {line} to override\n")


def test_usage_errors_exit_2(ws, capsys):
    code, out, err = run(capsys, ["check", "--graph", "/nonexistent", "--coloring", "/nope"])
    assert code == 2 and out == "" and err.startswith("error:")
    g = ws("g.txt", C4)
    bad = ws("bad.json", "[1, 2]")
    code, _, err = run(capsys, ["check", "--graph", g, "--coloring", bad])
    assert code == 2 and "4 vertices" in err
    code, _, err = run(capsys, ["chi", "--mode", "strong", "--r", "2"])
    assert code == 2 and "hypergraph" in err
    code, _, err = run(capsys, ["chi", "--graph", g, "--mode", "dynamic", "--r", "0"])
    assert code == 2


def test_negative_r_exits_2(ws, capsys):
    # proper mode ignores r, but a negative one is still bad input
    g = ws("p3.txt", "p edge 3 2\ne 1 2\ne 2 3\n")
    lists = ws("l.json", '{"0": [1], "1": [1, 2], "2": [3]}')
    c = ws("c.json", "[1, 2, 1]")
    for argv in (
        ["chi", "--graph", g, "--r", "-7"],
        ["choosable", "--graph", g, "--k", "2", "--r", "-1"],
        ["solve", "--graph", g, "--lists", lists, "--mode", "exact", "--r", "-2"],
        ["check", "--graph", g, "--coloring", c, "--r", "-3"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: r must be >= 0, got {argv[-1]}\n"


def test_missing_instance_errors(ws, capsys):
    g = ws("g.txt", C4)
    h = ws("h.txt", TWO_TRIPLES)
    for argv, line in [
        (["choosable", "--k", "2", "--mode", "strong", "--r", "2"], "strong mode needs --hypergraph"),
        (["choosable", "--graph", g, "--k", "2", "--mode", "strong", "--r", "2"],
         "strong mode needs --hypergraph"),
        (["chi", "--mode", "dynamic", "--r", "2"], "dynamic mode needs --graph"),
        (["chi", "--hypergraph", h, "--mode", "dynamic", "--r", "2"], "dynamic mode needs --graph"),
        (["chi"], "proper mode needs --graph"),
    ]:
        assert run(capsys, argv) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("check", "--coloring", "[" * 200_000),
        ("solve", "--lists", "[" * 200_000),
        ("solve", "--lists", '{"0":' + "[" * 200_000),
    ],
    ids=["check-coloring", "solve-lists", "solve-lists-in-object"],
)
def test_deeply_nested_json_exits_2(ws, capsys, command, flag, text):
    g = ws("g.txt", C4)
    deep = ws("deep.json", text)
    code, out, err = run(capsys, [command, "--graph", g, flag, deep])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "maximum recursion depth" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("error", [AssertionError, RecursionError])
def test_internal_errors_exit_3(ws, capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("invariant broken")

    monkeypatch.setattr(coloring, "solve_list_coloring", broken)
    g = ws("g.txt", C4)
    lists = ws("l.json", json.dumps({str(v): [1, 2] for v in range(4)}))
    code, out, err = run(capsys, ["solve", "--graph", g, "--lists", lists])
    assert code == 3 and out == ""
    assert err == f"internal error: {error.__name__}: invariant broken\n"


def test_memory_error_exits_4(ws, capsys, monkeypatch):
    # running out of memory is neither infeasibility (1) nor a failed invariant (3)
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(coloring, "solve_list_coloring", exhausted)
    g = ws("g.txt", C4)
    lists = ws("l.json", json.dumps({str(v): [1, 2] for v in range(4)}))
    code, out, err = run(capsys, ["solve", "--graph", g, "--lists", lists])
    assert code == 4 and out == ""
    assert err == "error: out of memory\n"


def test_output_is_stable(ws, capsys):
    g = ws("g.txt", C4)
    lists = ws("l.json", json.dumps({str(v): [1, 2, 3, 4] for v in range(4)}))
    argv = ["solve", "--graph", g, "--lists", lists, "--r", "2"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_emit_makes_one_write(monkeypatch):
    # print writes the newline apart, and a reader that has closed the pipe
    # after the JSON turns that second write into a BrokenPipeError
    writes = []

    class Stdout:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    _emit({"b": 1, "a": [2]})
    assert writes == ['{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n']
