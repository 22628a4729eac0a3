from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dyncolor import build_graph, build_hypergraph, choosability, generate, is_k_choosable
from dyncolor.choosability import _all_lists_colorable, _orientable
from .helpers import oracle_is_k_choosable


def list_size(draw, n):
    # k <= 3, except k <= 2 at n = 5: one positive instance of 5 vertices at
    # k = 3 takes the per-leaf oracle up to ~20 s
    return draw(st.integers(min_value=1, max_value=3 if n < 5 else 2))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges), list_size(draw, n)


@st.composite
def small_hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    edges = draw(st.lists(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1), max_size=4))
    if edges and draw(st.booleans()):
        edges.append(set(edges[0]))
    return build_hypergraph(n, edges), list_size(draw, n)


@pytest.mark.parametrize("mode,r", [("proper", 0), ("dynamic", 1), ("dynamic", 2), ("dynamic", 3)])
@settings(max_examples=25, deadline=None)
@given(case=small_graphs())
@example(case=(build_graph(4, []), 1))
def test_is_k_choosable_matches_per_leaf_oracle(mode, r, case):
    g, k = case
    assert is_k_choosable(g, k, mode=mode, r=r) == oracle_is_k_choosable(g, k, mode, r)


@settings(max_examples=40, deadline=None)
@given(case=small_hypergraphs(), r=st.integers(min_value=1, max_value=3))
@example(case=(build_hypergraph(3, []), 1), r=2)
@example(case=(build_hypergraph(3, [{0, 1}, {0, 1}, {1, 2}]), 2), r=2)
def test_hyper_strong_choosable_matches_per_leaf_oracle(case, r):
    h, k = case
    assert is_k_choosable(h, k, mode="strong", r=r) == oracle_is_k_choosable(h, k, "strong", r)


def test_bipartite_not_2_choosable_matches_per_leaf_oracle():
    # Every graph on at most five vertices has ch = chi (Noel, Reed and Wu's
    # proof of Ohba's conjecture), so on the random cases above identical
    # lists are always a hardest assignment.  K_{2,4} and K_{3,3} are not.
    k24 = generate("complete_bipartite", a=2, b=4)
    assert is_k_choosable(k24, 2) is oracle_is_k_choosable(k24, 2) is False
    k33 = generate("complete_bipartite", a=3, b=3)
    assert is_k_choosable(k33, 2, mode="dynamic", r=1) is oracle_is_k_choosable(k33, 2, "dynamic", 1) is False
    # strong at r = 2 on a 2-uniform hypergraph is proper coloring
    h = build_hypergraph(6, [set(e) for e in k33.edges])
    assert is_k_choosable(h, 2, mode="strong", r=2) is oracle_is_k_choosable(h, 2, "strong", 2) is False


def test_even_cycles_choosable_odd_not():
    # Erdos-Rubin-Taylor: a cycle is 2-choosable exactly when it is even
    assert is_k_choosable(generate("cycle", n=8), 2)
    assert not is_k_choosable(generate("cycle", n=7), 2)


def test_relabelled_c6_same_answer():
    c6 = generate("cycle", n=6)
    rng = random.Random(3)
    for _ in range(3):
        perm = list(range(6))
        rng.shuffle(perm)
        relabelled = build_graph(6, [(perm[u], perm[v]) for u, v in c6.edges])
        assert is_k_choosable(relabelled, 2) == is_k_choosable(c6, 2) is True


def test_choosability_depth_not_bounded_by_recursion_limit():
    # one list per vertex, 1500 deep: the search keeps its own stack
    assert is_k_choosable(build_hypergraph(1500, []), 1, mode="strong", r=2, max_n=1500)


def proper_search(g, k):
    """The forall-exists search alone, with the needs is_k_choosable gives it in proper mode."""
    return _all_lists_colorable(g.n, [(e, 2) for e in g.edges], k)


@pytest.fixture
def searches(monkeypatch):
    """The vertex counts of the calls that reach the search."""
    calls = []

    def spy(n, needs, k):
        calls.append(n)
        return _all_lists_colorable(n, needs, k)

    monkeypatch.setattr(choosability, "_all_lists_colorable", spy)
    return calls


def theta(*lengths):
    """Hubs 0 and 1 joined by internally disjoint paths of the given lengths."""
    edges, nxt = [], 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.append((prev, 1))
    return build_graph(nxt, edges)


def union(*graphs):
    edges, base = [], 0
    for g in graphs:
        edges += [(base + u, base + v) for u, v in g.edges]
        base += g.n
    return build_graph(base, edges)


def cycle(n):
    return generate("cycle", n=n)


def kab(a, b):
    return generate("complete_bipartite", a=a, b=b)


# two triangles sharing vertex 4; two triangles joined by the path 2-6-3;
# two 4-cycles sharing vertex 0; two 4-cycles joined by the path 0-8-4;
# the cube Q_3; C_6 with a tree hung from vertex 0
BOWTIE = build_graph(5, [(0, 1), (1, 4), (0, 4), (2, 3), (3, 4), (2, 4)])
DUMBBELL = build_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 6), (6, 3)])
FIGURE_EIGHT = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])
C4_PATH_C4 = build_graph(9, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 8), (8, 4), (4, 5), (5, 6), (6, 7), (7, 4)])
CUBE = build_graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b])
C6_WITH_TREE = build_graph(9, list(cycle(6).edges) + [(0, 6), (6, 7), (6, 8)])


@settings(max_examples=60, deadline=None)
@given(case=small_graphs())
def test_proper_search_matches_per_leaf_oracle(case):
    # the certificates now answer most proper cases, so drive the search directly
    g, k = case
    assume(g.n > 0)
    assert proper_search(g, k) == oracle_is_k_choosable(g, k)


# K_{3,3} at k = 3 is left out: the search alone runs for minutes there
# (test_k33_is_3_choosable_without_search pins it)
@pytest.mark.parametrize(
    "g,k",
    [pytest.param(cycle(n), k, id=f"C{n}-{k}") for n in (6, 7, 8) for k in (2, 3)]
    + [pytest.param(kab(2, b), k, id=f"K2{b}-{k}") for b in (3, 4) for k in (2, 3)]
    + [pytest.param(kab(3, 3), 2, id="K33-2")],
)
def test_certificate_answer_equals_search_answer(g, k, searches):
    assert is_k_choosable(g, k) is proper_search(g, k)
    assert searches == []


@pytest.mark.parametrize(
    "g,expected",
    [
        pytest.param(theta(2, 2, 4), True, id="theta224"),
        pytest.param(C6_WITH_TREE, True, id="C6+tree"),
        pytest.param(union(cycle(6), kab(2, 3)), True, id="C6+K23"),
        pytest.param(theta(2, 3, 3), False, id="theta233"),
        pytest.param(theta(1, 3, 3), False, id="theta133"),
        pytest.param(theta(2, 2, 3), False, id="theta223"),
        pytest.param(theta(2, 2, 5), False, id="theta225"),
        pytest.param(theta(2, 4, 4), False, id="theta244"),
        pytest.param(DUMBBELL, False, id="dumbbell"),
        pytest.param(BOWTIE, False, id="bowtie"),
        pytest.param(FIGURE_EIGHT, False, id="figure-eight"),
        pytest.param(C4_PATH_C4, False, id="C4-path-C4"),
        pytest.param(union(cycle(6), cycle(5)), False, id="C6+C5"),
    ],
)
def test_two_choosability_by_erdos_rubin_taylor(g, expected, searches):
    assert is_k_choosable(g, 2, max_n=g.n) is expected
    assert searches == []
    if g.n <= 9:
        assert proper_search(g, 2) is expected


def test_k33_is_3_choosable_without_search(searches):
    start = time.perf_counter()
    assert is_k_choosable(kab(3, 3), 3)
    assert time.perf_counter() - start < 1
    assert searches == []


def test_cube_choosability_is_3(searches):
    assert not is_k_choosable(CUBE, 2)
    assert is_k_choosable(CUBE, 3)
    assert searches == []


def test_uncertified_cases_reach_the_search(searches):
    # K_4 is 3-degenerate and not bipartite: no certificate applies
    assert not is_k_choosable(generate("complete", n=4), 3)
    # the certificates are proper-mode only; dynamic r=1 is proper coloring
    assert is_k_choosable(cycle(8), 2, mode="dynamic", r=1)
    assert searches == [4, 8]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=7),
    data=st.data(),
    cap=st.integers(min_value=0, max_value=3),
)
def test_orientable_matches_subgraph_density(n, data, cap):
    # Hakimi: an orientation with out-degrees <= cap exists iff no subgraph
    # has more than cap edges per vertex
    pairs = list(itertools.combinations(range(n), 2))
    g = build_graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    dense = any(
        sum(u in s and v in s for u, v in g.edges) > cap * len(s)
        for size in range(1, n + 1)
        for s in map(set, itertools.combinations(range(n), size))
    )
    assert _orientable(g, cap) is not dense
