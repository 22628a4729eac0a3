from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dyncolor import build_graph, build_hypergraph, generate, hyper_is_k_strong_choosable, is_k_choosable
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
    assert hyper_is_k_strong_choosable(h, k, r) == oracle_is_k_choosable(h, k, "strong", r)


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
    assert hyper_is_k_strong_choosable(h, 2, 2) is oracle_is_k_choosable(h, 2, "strong", 2) is False


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
    assert hyper_is_k_strong_choosable(build_hypergraph(1500, []), 1, 2, max_n=1500)
