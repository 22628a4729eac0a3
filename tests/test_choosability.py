from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dyncolor import build_graph, build_hypergraph, choosability, generate, is_k_choosable
from dyncolor.choosability import MET, _all_lists_colorable, _core_components, _orientable, _renumber
from dyncolor.coloring import _constraints
from .helpers import oracle_gnp, oracle_is_k_choosable, oracle_k_core


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


def test_renumber_names_live_colors_densely_in_ascending_order():
    # two state sets equal up to an order-preserving renaming of their live
    # colors (3 -> 2, 7 -> 5, 9 -> 40): one memo key, with L live colors
    a = {(frozenset({7, 3}), MET), (frozenset({9}), frozenset())}
    b = {(frozenset({5, 2}), MET), (frozenset({40}), frozenset())}
    key = frozenset({(frozenset({1, 2}), MET), (frozenset({3}), frozenset())})
    assert _renumber(a) == _renumber(b) == (key, 3)
    assert _renumber({(MET, MET)}) == (frozenset({(MET, MET)}), 0)


def proper_search(g, k):
    """The forall-exists search alone, on the constraints is_k_choosable gives it in proper mode."""
    return _all_lists_colorable(g.n, *_constraints(g, "proper", 0), k)


@pytest.fixture
def searches(monkeypatch):
    """The vertex counts of the calls that reach the search."""
    calls = []

    def spy(n, edges, need, graph, k):
        calls.append(n)
        return _all_lists_colorable(n, edges, need, graph, k)

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
# hub 4 on the rim 0-1-2-3: K_{1,2,2}, 3-colorable and 3-choosable
W4 = build_graph(5, list(cycle(4).edges) + [(4, v) for v in range(4)])
K4 = generate("complete", n=4)
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
    # the wheel W_4 is its own 3-core, 3-colorable and not bipartite: no
    # certificate applies and 1..3 color it
    assert is_k_choosable(W4, 3)
    # the certificates are proper-mode only; dynamic r=1 is proper coloring
    assert is_k_choosable(cycle(8), 2, mode="dynamic", r=1)
    assert searches == [5, 8]


def test_low_degree_vertices_stay_out_of_the_search(searches):
    # W_4 plus a pendant vertex: the pendant is peeled off the 3-core
    g = build_graph(6, list(W4.edges) + [(3, 5)])
    assert is_k_choosable(g, 3)
    assert searches == [5]


def test_not_k_colorable_is_not_k_choosable_without_search(searches):
    # ch >= chi: chi(K_4) = 4, and C_5 takes 5 colors 2-dynamically
    # (chi_2(C_5) = 5), so one first-use coloring search answers
    assert not is_k_choosable(K4, 3)
    assert not is_k_choosable(cycle(5), 4, mode="dynamic", r=2)
    h = build_hypergraph(4, [{0, 1, 2}, {1, 2, 3}, {0, 3}])
    assert not is_k_choosable(h, 2, mode="strong", r=3)
    assert searches == []


def test_search_runs_on_the_3_core_alone(searches):
    # 8 vertices and 13 edges, not bipartite; its 3-core has 5 vertices and
    # 8 edges.  The search on all 8 vertices runs for minutes.
    assert is_k_choosable(oracle_gnp(8, 0.45, 13), 3) is True
    assert searches == [5]


@st.composite
def low_degree_extensions(draw):
    """(g, g plus 1-2 vertices each joined to fewer than k vertices before it, k)."""
    g, _ = draw(small_graphs())
    k = draw(st.sampled_from([2, 3]))
    n, edges = g.n, list(g.edges)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        nbrs = draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True, max_size=k - 1)) if n else []
        edges += [(u, n) for u in nbrs]
        n += 1
    return g, build_graph(n, edges), k


def connected(g):
    seen, todo = {0}, [0]
    while todo:
        for w in set(g.adj[todo.pop()]) - seen:
            seen.add(w)
            todo.append(w)
    return len(seen) == g.n


K5_MINUS_EDGE = build_graph(5, [e for e in generate("complete", n=5).edges if e != (0, 1)])


@settings(max_examples=40, deadline=None)
@given(case=low_degree_extensions())
# random edge sets on 5 vertices seldom have a 3-core, so two cases with one
# are pinned; both cores take 4 colors, so the k-coloring test answers them
# before the search (W_4's core reaches it in the tests above)
@example(case=(K4, build_graph(6, list(K4.edges) + [(0, 4), (1, 4), (4, 5)]), 3))
@example(case=(K5_MINUS_EDGE, build_graph(6, list(K5_MINUS_EDGE.edges) + [(0, 5), (1, 5)]), 3))
def test_vertices_of_degree_below_k_change_nothing(case):
    # Erdos-Rubin-Taylor: a vertex of degree below k can always be colored
    # last, so only the components of the k-core reach the search
    g, bigger, k = case
    seen = []

    def spy(n, edges, need, graph, k):
        seen.append(build_graph(n, [(u, v) for u, nu in enumerate(edges) for v in nu]))
        return _all_lists_colorable(n, edges, need, graph, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(choosability, "_all_lists_colorable", spy)
        assert is_k_choosable(bigger, k) is is_k_choosable(g, k)
    for c in seen:
        assert connected(c) and min(len(a) for a in c.adj) >= k


def oracle_core_components(g, k):
    """The components of the round-peeled k-core, each relabelled by sorted id."""
    core, comps = oracle_k_core(g, k), []
    while core:
        comp, todo = set(), [min(core)]
        while todo:
            v = todo.pop()
            if v in core:
                core.remove(v)
                comp.add(v)
                todo += g.adj[v]
        name = {v: i for i, v in enumerate(sorted(comp))}
        comps.append(build_graph(len(comp), [(name[u], name[w]) for u, w in g.edges if u in comp and w in comp]))
    return comps


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=10),
    data=st.data(),
    k=st.integers(min_value=1, max_value=5),
)
def test_core_components_match_the_round_peel(n, data, k):
    pairs = list(itertools.combinations(range(n), 2))
    g = build_graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    # in order: is_k_choosable stops at the first component that fails
    got = [(c.n, c.edges) for c in _core_components(g, k)]
    assert got == [(c.n, c.edges) for c in oracle_core_components(g, k)]


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
