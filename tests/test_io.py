from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from dyncolor import (
    build_graph,
    build_hypergraph,
    parse_coloring,
    parse_graph,
    parse_hypergraph,
    parse_lists,
    serialize_coloring,
    serialize_graph,
    serialize_hypergraph,
    serialize_lists,
)
from dyncolor.coloring import _Sorted, _normalize_lists

GRAPH_TEXT = """c a square
p edge 4 4
e 1 2
e 2 3
e 3 4
e 4 1
"""

HYPER_TEXT = """c two triples
h 4 2
1 2 3
2 3 4
"""


def test_parse_graph_round_trip():
    g = parse_graph(GRAPH_TEXT)
    assert g.n == 4 and g.m == 4
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert parse_graph(serialize_graph(g)) == g


def test_parse_graph_errors():
    with pytest.raises(ValueError):
        parse_graph("")
    with pytest.raises(ValueError):
        parse_graph("p edge 2 1\ne 1 3\n")
    with pytest.raises(ValueError):
        parse_graph("p edge 2 2\ne 1 2\n")  # m mismatch
    with pytest.raises(ValueError):
        parse_graph("p graph 2 0\n")
    with pytest.raises(ValueError):
        parse_graph("e 1 2\np edge 2 1\n")  # edge before header


def test_parse_hypergraph_round_trip():
    h = parse_hypergraph(HYPER_TEXT)
    assert h.n == 4 and h.m == 2
    assert h.edges == (frozenset({0, 1, 2}), frozenset({1, 2, 3}))
    assert parse_hypergraph(serialize_hypergraph(h)) == h


def test_parse_hypergraph_errors():
    with pytest.raises(ValueError):
        parse_hypergraph("h 3 1\n")  # missing edge line
    with pytest.raises(ValueError):
        parse_hypergraph("h 3 1\n1 4\n")
    with pytest.raises(ValueError):
        parse_hypergraph("h 3 1\n\n")


def test_serialize_hypergraph_rejects_empty_edge():
    h = build_hypergraph(3, [set()])
    with pytest.raises(ValueError):
        serialize_hypergraph(h)


def test_parse_lists():
    lists = parse_lists('{"0": [1, 2], "1": [2, 3]}', n=2)
    assert lists == [(1, 2), (2, 3)]
    with pytest.raises(ValueError):
        parse_lists('{"0": [1]}', n=2)
    with pytest.raises(ValueError):
        parse_lists('{"0": [1], "2": [1]}', n=2)
    with pytest.raises(ValueError):
        parse_lists('{"0": [true], "1": [1]}', n=2)
    with pytest.raises(ValueError):
        parse_lists('[1, 2]', n=2)
    # "01" names vertex 1 again; the later list must not replace the first
    with pytest.raises(ValueError, match="vertex key '01' repeats vertex 1"):
        parse_lists('{"1": [1], "01": [2], "0": [3]}', n=2)


def test_parse_lists_returns_sorted_lists():
    # _Sorted lists pass later normalizations unchecked, as the same object
    lists = parse_lists('{"0": [3, 1, 3], "1": [2]}', n=2)
    assert lists == [(1, 3), (2,)] and {type(t) for t in lists} == {_Sorted}
    assert _normalize_lists(2, lists)[0] is lists[0]


@pytest.mark.parametrize(
    "colors, bad",
    [("[1, true]", "True"), ("[2, -1, -3]", "-1"), ("[1, 2.0]", "2.0"), ('[1, "a"]', "'a'"),
     ("[false, 1]", "False"), ("[1, null]", "None"), ("[1, [2]]", "[2]"), ("[-0.5, 3]", "-0.5")],
)
def test_parse_lists_names_the_first_bad_color(colors, bad):
    with pytest.raises(ValueError, match=re.escape(f"list for vertex 1 has a bad color {bad}")):
        parse_lists(f'{{"0": [1], "1": {colors}}}', n=2)


def test_lists_round_trip():
    lists = [[3, 1, 2], [5]]
    assert parse_lists(serialize_lists(lists), n=2) == [(1, 2, 3), (5,)]


def test_coloring_round_trip():
    c = [1, 2, 1]
    assert parse_coloring(serialize_coloring(c), n=3) == c
    with pytest.raises(ValueError):
        parse_coloring("[1, 2]", n=3)
    with pytest.raises(ValueError):
        parse_coloring('["a", 1, 2]', n=3)


DEEP = "[" * 200_000  # nested past the JSON decoder's recursion limit


@pytest.mark.parametrize(
    "parse, text, what",
    [
        (parse_coloring, DEEP, "coloring"),
        (parse_lists, DEEP, "list assignment"),
        (parse_lists, '{"0":' + DEEP, "list assignment"),
    ],
    ids=["coloring", "lists", "lists-in-object"],
)
def test_deeply_nested_json_is_a_value_error(parse, text, what):
    with pytest.raises(ValueError) as info:
        parse(text, 2)
    assert str(info.value).startswith(f"{what} is not valid JSON: maximum recursion depth")


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_graph(n, edges)


@given(graphs())
def test_graph_round_trip_property(g):
    assert parse_graph(serialize_graph(g)) == g


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n),
            min_size=0,
            max_size=4,
        ).map(lambda es: build_hypergraph(n, es))
    )
)
def test_hypergraph_round_trip_property(h):
    assert parse_hypergraph(serialize_hypergraph(h)) == h
