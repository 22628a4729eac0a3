from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dyncolor import (
    build_graph,
    build_hypergraph,
    chi_exact,
    generate,
    is_k_choosable,
    is_proper,
    is_r_dynamic,
    is_r_strong,
    solve_list_coloring,
)
from dyncolor.coloring import _least_k
from .helpers import (
    oracle_chi,
    oracle_first_coloring,
    oracle_list_colorings,
    oracle_strong_chi,
    oracle_valid,
    random_lists,
)

GRAPH_MODES = [("proper", 0), ("dynamic", 1), ("dynamic", 2), ("dynamic", 3)]


def full_lists(n, k):
    return [list(range(1, k + 1)) for _ in range(n)]


def color_lists(n):
    return st.lists(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3), min_size=n, max_size=n)


@st.composite
def listed_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges), draw(color_lists(n))


@st.composite
def listed_hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    edges = draw(st.lists(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1), max_size=5))
    return build_hypergraph(n, edges), draw(color_lists(n))


# --- validity predicates ---------------------------------------------------

def test_is_proper():
    g = generate("cycle", n=4)
    assert is_proper(g, [1, 2, 1, 2])
    assert not is_proper(g, [1, 1, 2, 2])
    with pytest.raises(ValueError):
        is_proper(g, [1, 2, 1])


def test_is_r_dynamic_c6():
    g = generate("cycle", n=6)
    c = [1, 2, 3, 1, 2, 3]
    assert is_r_dynamic(g, c, 2)
    assert not is_r_dynamic(g, [1, 2, 1, 2, 1, 2], 2)
    assert is_r_dynamic(g, [1, 2, 1, 2, 1, 2], 1)


def test_is_r_dynamic_min_with_degree():
    # a leaf has degree 1, so r=2 only demands 1 distinct neighbor color there
    g = build_graph(3, [(0, 1), (1, 2)])
    assert is_r_dynamic(g, [1, 2, 3], 2)
    assert is_r_dynamic(g, [1, 2, 1], 1)
    assert not is_r_dynamic(g, [1, 2, 1], 2)


def test_is_r_strong():
    h = build_hypergraph(4, [{0, 1, 2}, {1, 2, 3}])
    assert is_r_strong(h, [1, 2, 1, 2], 2)
    assert not is_r_strong(h, [1, 1, 1, 2], 2)
    # strongness does not require properness
    assert is_r_strong(h, [1, 1, 2, 2], 2)
    assert is_r_strong(h, [1, 2, 3, 1], 3)
    # min with edge size: a singleton edge is satisfied by any coloring
    h2 = build_hypergraph(2, [{0}])
    assert is_r_strong(h2, [1, 1], 3)


@given(st.integers(min_value=3, max_value=8), st.integers(min_value=1, max_value=3))
def test_all_distinct_coloring_is_r_dynamic(n, r):
    g = generate("gnp", seed=n * 10 + r, n=n, p=0.5)
    assert is_r_dynamic(g, list(range(1, n + 1)), r)


# --- exact chi -------------------------------------------------------------

def test_chi_exact_proper():
    assert chi_exact(generate("cycle", n=6)) == 2
    assert chi_exact(generate("cycle", n=5)) == 3
    assert chi_exact(generate("complete", n=4)) == 4


def test_chi_exact_dynamic_cycles():
    assert chi_exact(generate("cycle", n=6), mode="dynamic", r=2) == 3
    assert chi_exact(generate("cycle", n=5), mode="dynamic", r=2) == 5
    assert chi_exact(generate("cycle", n=4), mode="dynamic", r=2) == 4


def test_chi_exact_complete_and_star():
    for n in (2, 3, 4, 5):
        for r in (1, 2, 3):
            assert chi_exact(generate("complete", n=n), mode="dynamic", r=r) == n
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    assert chi_exact(star, mode="dynamic", r=1) == 2
    # center needs min(2, 4) = 2 distinct leaf colors
    assert chi_exact(star, mode="dynamic", r=2) == 3


def test_chi_exact_matches_oracle():
    cases = [
        (generate("cycle", n=5), 2),
        (generate("cycle", n=6), 2),
        (generate("complete_bipartite", a=2, b=3), 2),
        (generate("gnp", seed=7, n=7, p=0.4), 2),
        (generate("gnp", seed=3, n=6, p=0.5), 3),
    ]
    for g, r in cases:
        assert chi_exact(g, mode="dynamic", r=r) == oracle_chi(g, r)
        assert chi_exact(g) == oracle_chi(g)


@pytest.mark.parametrize("mode,r", GRAPH_MODES)
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=6),
    p=st.sampled_from([0.2, 0.4, 0.6, 0.8]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_chi_exact_matches_oracle_on_random_graphs(mode, r, n, p, seed):
    g = generate("gnp", seed=seed, n=n, p=p)
    assert chi_exact(g, mode=mode, r=r) == oracle_chi(g, r)


def test_chi_exact_guards():
    with pytest.raises(ValueError):
        chi_exact(generate("cycle", n=13), mode="dynamic", r=2, max_n=12)
    with pytest.raises(ValueError):
        chi_exact(generate("cycle", n=4), mode="dynamic", r=0)
    with pytest.raises(ValueError):
        chi_exact(generate("cycle", n=4), mode="sideways")
    assert chi_exact(build_graph(0, [])) == 0


# --- list coloring solver --------------------------------------------------

def test_solve_list_full_lists_matches_chi():
    g = generate("cycle", n=5)
    assert solve_list_coloring(g, full_lists(5, 4), mode="dynamic", r=2) is None
    c = solve_list_coloring(g, full_lists(5, 5), mode="dynamic", r=2)
    assert c is not None and is_r_dynamic(g, c, 2)


def test_solve_list_respects_lists():
    g = generate("cycle", n=4)
    lists = [[1, 2], [3, 4], [1, 2], [3, 4]]
    c = solve_list_coloring(g, lists, mode="dynamic", r=2)
    assert c is not None
    for v, col in enumerate(c):
        assert col in lists[v]
    assert is_r_dynamic(g, c, 2)


def test_solve_list_proper_mode_ignores_r():
    g = generate("cycle", n=6)
    c = solve_list_coloring(g, full_lists(6, 2))
    assert c == [1, 2, 1, 2, 1, 2]


def test_solve_list_rejects_bad_input():
    g = generate("cycle", n=4)
    with pytest.raises(ValueError):
        solve_list_coloring(g, [[1]] * 3)
    with pytest.raises(ValueError):
        solve_list_coloring(g, [[1], [], [1], [1]])
    with pytest.raises(ValueError):
        solve_list_coloring(g, full_lists(4, 2), mode="dynamic", r=0)


def test_solve_list_none_means_unsolvable():
    # cross-checked by brute force over all assignments
    rng = random.Random(99)
    for trial in range(30):
        g = generate("gnp", seed=trial, n=5, p=0.5)
        lists = random_lists(5, 3, range(1, 6), rng)
        got = solve_list_coloring(g, lists, mode="dynamic", r=2)
        brute = [c for c in oracle_list_colorings(g, lists) if oracle_valid(g, c, 2)]
        if got is None:
            assert brute == []
        else:
            assert oracle_valid(g, got, 2)
            assert brute != []


@pytest.mark.parametrize("mode,r", GRAPH_MODES)
@settings(max_examples=100, deadline=None)
@given(case=listed_graphs())
def test_solve_list_returns_first_coloring_in_search_order(mode, r, case):
    # pins the search order: another vertex or color order, or a prune that
    # cuts a valid branch, returns another coloring (or None)
    g, lists = case
    assert solve_list_coloring(g, lists, mode, r) == oracle_first_coloring(g, lists, mode, r)


@pytest.mark.parametrize("r", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(case=listed_hypergraphs())
def test_solve_strong_returns_first_coloring_in_search_order(r, case):
    h, lists = case
    assert solve_list_coloring(h, lists, mode="strong", r=r) == oracle_first_coloring(h, lists, "strong", r)


@st.composite
def small_graphs(draw):
    # repeated and reversed pairs collapse to one edge; no pairs is edgeless
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return build_graph(n, draw(st.lists(st.sampled_from(pairs))) if pairs else [])


@st.composite
def small_hypergraphs(draw):
    # duplicate and empty edges are kept; no edges is edgeless
    n = draw(st.integers(min_value=0, max_value=7))
    edges = draw(st.lists(st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=5)) if n else []
    if edges and draw(st.booleans()):
        edges.append(edges[draw(st.integers(min_value=0, max_value=len(edges) - 1))])
    return build_hypergraph(n, edges)


@pytest.mark.parametrize("mode,r", GRAPH_MODES)
@settings(max_examples=100, deadline=None)
@given(g=small_graphs())
def test_least_k_coloring_is_first_from_full_lists(mode, r, g):
    # construction_report lifts this coloring in place of a second search
    k, coloring = _least_k(g, mode, r, g.n)
    assert k == chi_exact(g, mode, r)
    assert coloring == solve_list_coloring(g, full_lists(g.n, k), mode, r)
    if k > 1:
        assert solve_list_coloring(g, full_lists(g.n, k - 1), mode, r) is None


@pytest.mark.parametrize("r", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(h=small_hypergraphs())
def test_least_k_strong_coloring_is_first_from_full_lists(r, h):
    k, coloring = _least_k(h, "strong", r, h.n)
    assert k == chi_exact(h, mode="strong", r=r)
    assert coloring == solve_list_coloring(h, full_lists(h.n, k), mode="strong", r=r)
    if k > 1:
        assert solve_list_coloring(h, full_lists(h.n, k - 1), mode="strong", r=r) is None


def test_solve_list_long_cycle_no_recursion_limit():
    # the search keeps its own stack: a 1500-vertex cycle is deeper than the
    # default recursion limit and still colors 1, 2, 1, 2, ... then 3 to close
    g = generate("cycle", n=1500)
    got = solve_list_coloring(g, [[1, 2, 3]] * 1500)
    assert got == [1, 2] * 750
    odd = generate("cycle", n=1501)
    got = solve_list_coloring(odd, [[1, 2, 3]] * 1501)
    assert is_proper(odd, got) and got[:4] == [1, 2, 1, 2]


# --- choosability ----------------------------------------------------------

def test_is_k_choosable_small():
    c4 = generate("cycle", n=4)
    assert is_k_choosable(c4, 2)
    assert not is_k_choosable(generate("cycle", n=5), 2)
    assert is_k_choosable(generate("cycle", n=5), 3)
    k4 = generate("complete", n=4)
    assert not is_k_choosable(k4, 3)
    assert is_k_choosable(k4, 4)


def test_k33_not_2_choosable():
    assert not is_k_choosable(generate("complete_bipartite", a=3, b=3), 2)


def test_choosable_r_dynamic():
    # negatives exit on the earliest assignment (identical lists), so even
    # k=4 on a 5-cycle is cheap; positives must exhaust the space and stay tiny
    assert not is_k_choosable(generate("cycle", n=5), 4, mode="dynamic", r=2, max_k=5)
    assert not is_k_choosable(generate("cycle", n=4), 3, mode="dynamic", r=2)
    # on a path, 1-dynamic coincides with proper, and paths are 2-choosable
    path = build_graph(3, [(0, 1), (1, 2)])
    assert is_k_choosable(path, 2, mode="dynamic", r=1)
    assert not is_k_choosable(path, 2, mode="dynamic", r=2)


def test_choosable_guards():
    with pytest.raises(ValueError):
        is_k_choosable(generate("cycle", n=9), 2, max_n=8)
    with pytest.raises(ValueError):
        is_k_choosable(generate("cycle", n=5), 5, max_k=4)
    with pytest.raises(ValueError):
        is_k_choosable(generate("cycle", n=5), 0)
    assert is_k_choosable(build_graph(0, []), 1)


# --- strong hypergraph coloring ---------------------------------------------

def test_hyper_chi_strong_examples():
    h = build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
    # pairwise edges force all three vertices distinct at r=2
    assert chi_exact(h, mode="strong", r=2) == 3
    assert chi_exact(h, mode="strong", r=2) == oracle_strong_chi(h, 2)
    h2 = build_hypergraph(4, [{0, 1, 2}, {1, 2, 3}])
    assert chi_exact(h2, mode="strong", r=2) == 2
    assert chi_exact(h2, mode="strong", r=3) == 3
    for r in (2, 3):
        assert chi_exact(h2, mode="strong", r=r) == oracle_strong_chi(h2, r)


def test_hyper_chi_strong_edgeless():
    h = build_hypergraph(3, [])
    assert chi_exact(h, mode="strong", r=2) == 1


def test_solve_strong_list_coloring():
    h = build_hypergraph(4, [{0, 1, 2}, {1, 2, 3}])
    lists = [[1], [1, 2], [1, 2], [1]]
    c = solve_list_coloring(h, lists, mode="strong", r=2)
    assert c is not None and is_r_strong(h, c, 2)
    assert all(c[v] in lists[v] for v in range(4))
    # shrink the middle lists and it becomes impossible
    assert solve_list_coloring(h, [[1], [1], [1], [1]], mode="strong", r=2) is None


def test_hyper_choosable():
    h = build_hypergraph(4, [{0, 1, 2}, {1, 2, 3}])
    assert is_k_choosable(h, 2, mode="strong", r=2)
    assert not is_k_choosable(h, 1, mode="strong", r=2)
    # strong mode adds no properness: at r = 1 one color meets a 3-edge
    assert is_k_choosable(build_hypergraph(3, [{0, 1, 2}]), 1, mode="strong", r=1) is True


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_strong_chi_matches_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    m = rng.randint(1, 3)
    edges = []
    for _ in range(m):
        size = rng.randint(1, n)
        edges.append(set(rng.sample(range(n), size)))
    h = build_hypergraph(n, edges)
    r = rng.randint(1, 3)
    assert chi_exact(h, mode="strong", r=r) == oracle_strong_chi(h, r)


def test_solve_strong_long_path_no_recursion_limit():
    # 1500 vertices is deeper than the default recursion limit
    h = build_hypergraph(1500, [{i, i + 1} for i in range(1499)])
    lists = [[1, 2]] * 1500
    got = solve_list_coloring(h, lists, mode="strong", r=2)
    assert got is not None and is_r_strong(h, got, 2)
