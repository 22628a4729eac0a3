from __future__ import annotations

import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from dyncolor import coloring as coloring_mod
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
from dyncolor.coloring import _Sorted, _constraints, _first_fit, _least_k, _mcs_order, _normalize_lists, _search
from .helpers import (
    oracle_chi,
    oracle_first_coloring,
    oracle_list_colorings,
    oracle_mcs_order,
    oracle_normalize_lists,
    oracle_strong_chi,
    oracle_valid,
    oracle_validator,
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


@settings(max_examples=300, deadline=None)
@given(listed_graphs(), st.integers(min_value=1, max_value=4), st.data())
def test_is_r_dynamic_matches_oracle(case, r, data):
    g = case[0]
    coloring = data.draw(st.lists(st.integers(min_value=1, max_value=4), min_size=g.n, max_size=g.n))
    assert is_r_dynamic(g, coloring, r) == oracle_valid(g, coloring, r)


def test_is_r_dynamic_compares_colors_as_a_set_does():
    # one walk of the neighborhoods puts every color in a set: unhashable
    # colors raise on an improper coloring too, and a NaN object matches itself
    g = build_graph(2, [(0, 1)])
    with pytest.raises(TypeError):
        is_r_dynamic(g, [[1], [1]], 1)
    with pytest.raises(TypeError):
        is_proper(g, [[1], [2]])
    nan = float("nan")
    assert not is_r_dynamic(g, [nan, nan], 1)
    assert is_r_dynamic(g, [nan, float("nan")], 1)
    assert not is_proper(g, [nan, nan])  # the same walk, so the same rule


# --- list normalization ----------------------------------------------------

@st.composite
def color_collections(draw):
    # ints mixed with bools, so that (0, True)-style lists occur
    colors = draw(st.lists(st.one_of(st.integers(min_value=-3, max_value=6), st.booleans()), max_size=6))
    kind = draw(st.sampled_from(["sorted", "ascending", "repeated", "descending", "tuple", "list", "set", "range"]))
    if kind == "sorted":
        return _Sorted(sorted(set(colors)))
    if kind == "ascending":
        return tuple(sorted(set(colors)))
    if kind == "repeated":
        return tuple(sorted(colors + colors))
    if kind == "descending":
        return tuple(sorted(set(colors), reverse=True))
    if kind == "tuple":
        return tuple(colors)
    if kind == "list":
        return colors
    if kind == "set":
        return set(colors)
    start, stop = draw(st.integers(min_value=-3, max_value=6)), draw(st.integers(min_value=-3, max_value=6))
    return range(start, stop, draw(st.sampled_from([1, 2, -1, -3])))


@settings(max_examples=500, deadline=None)
@given(st.lists(color_collections(), max_size=5), st.integers(min_value=0, max_value=4))
def test_normalize_lists_matches_oracle(lists, floor):
    try:
        want = oracle_normalize_lists(len(lists), lists, floor)
    except ValueError as exc:  # a list below the floor
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            _normalize_lists(len(lists), lists, floor)
        return
    got = _normalize_lists(len(lists), lists, floor)
    assert repr(got) == repr(want)  # repr tells True from 1
    for t, out in zip(lists, got):
        assert type(out) is _Sorted
        if type(t) is _Sorted:
            assert out is t  # a list marked as in normal form is passed through


def test_normalize_lists_passes_normal_tuples_through():
    t = (1, 2, 5)
    assert _normalize_lists(1, [t])[0] == t
    assert _normalize_lists(3, [(0, True), (True, 1), (2, 1)]) == [(0, True), (True,), (1, 2)]

    class Colors(tuple):
        pass

    got = _normalize_lists(1, [Colors((1, 2))])[0]
    assert type(got) is _Sorted and got == (1, 2)
    # a plain ascending tuple is rebuilt as _Sorted, like every list that is
    # not one, and a _Sorted list comes back as the same object
    assert type(_normalize_lists(1, [t])[0]) is _Sorted
    s = _normalize_lists(1, [[5, 1, 5]])[0]
    assert type(s) is _Sorted and s == (1, 5)
    assert _normalize_lists(1, [s])[0] is s
    # unhashable colors raise as set() does, also in an ascending tuple
    with pytest.raises(TypeError):
        _normalize_lists(1, [([1], [2])])
    with pytest.raises(ValueError, match="list at vertex 0 has 2 colors, needs >= 3"):
        _normalize_lists(1, [(1, 2)], floor=3)


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


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _closed_form_chi(family, r, **params):
    """chi_r for r >= 2: C_n 3 when 3 | n, 5 at n = 5, else 4; K_{a,b} min(r, a) + min(r, b)."""
    if family == "cycle":
        n = params["n"]
        return 3 if n % 3 == 0 else 5 if n == 5 else 4
    return min(r, params["a"]) + min(r, params["b"])


CLOSED_FORM_CASES = [
    *(("cycle", r, {"n": n}) for n in (19, 20, 24) for r in (2, 3)),
    ("complete_bipartite", 2, {"a": 8, "b": 8}),
    ("complete_bipartite", 3, {"a": 3, "b": 5}),
    ("complete_bipartite", 3, {"a": 4, "b": 4}),
    # the distinct-color bound's cases: without it K_{8,8} at r = 3 took
    # 2.5 times as long, and K_{10,10} at r = 2 over 20 times
    ("complete_bipartite", 3, {"a": 8, "b": 8}),
    ("complete_bipartite", 2, {"a": 10, "b": 10}),
    # the twin cut's cases: without it K_{10,10} at r = 3 took about 4 s, and
    # K_{12,12} gave no answer in 60 s
    ("complete_bipartite", 3, {"a": 10, "b": 10}),
    ("complete_bipartite", 3, {"a": 12, "b": 12}),
    # in degree order each relabelling of these ran past 20 s
    ("cycle", 2, {"n": 60}),
    ("cycle", 2, {"n": 100}),
]


@pytest.mark.parametrize(
    "family,r,params",
    CLOSED_FORM_CASES,
    ids=[f"{f}{'_'.join(map(str, p.values()))}-r{r}" for f, r, p in CLOSED_FORM_CASES],
)
def test_chi_exact_equals_the_closed_form_after_relabelling(family, r, params):
    # past the oracle's reach; chi_exact decides each k in maximum-cardinality-
    # search order, which a relabelling moves only where it breaks ties by id
    g = generate(family, **params)
    want = _closed_form_chi(family, r, **params)
    for seed in range(4):
        assert chi_exact(_relabelled(g, seed), mode="dynamic", r=r, max_n=g.n) == want


def test_mcs_order():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (1, 6), (3, 7), (3, 8), (9, 10), (10, 11)]
    adj = [set() for _ in range(13)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = _mcs_order(adj)
    assert sorted(order) == list(range(13))
    # 1 has the largest degree; of its neighbors 0 (degree 3) goes first.
    # Then 2, with two ordered neighbors, beats 3, with one and degree 3.
    # Then 3 by degree, and 4..8, one ordered neighbor and degree 1 each,
    # by id.  The path 9-10-11 starts at 10, its vertex of largest degree,
    # and the isolated 12 comes last.
    assert order == [1, 0, 2, 3, 4, 5, 6, 7, 8, 10, 9, 11, 12]
    assert _mcs_order([]) == []


def test_mcs_order_matches_its_definition():
    # tuple rows as a Graph holds them, set rows as choosability._steps passes
    # them, disconnected unions whose ids are shuffled, and the empty graph
    rng = random.Random(5)
    graphs = [build_graph(0, [])]
    for seed in range(60):
        graphs.append(generate("gnp", seed=seed, n=rng.randint(1, 30), p=rng.choice((0.05, 0.1, 0.2, 0.5))))
        parts = [generate("gnp", seed=1000 + 10 * seed + i, n=rng.randint(1, 8), p=rng.choice((0.2, 0.5)))
                 for i in range(rng.randint(2, 4))]
        graphs.append(_union(parts, rng))
    for g in graphs:
        want = oracle_mcs_order(g.adj)
        assert _mcs_order(g.adj) == want
        assert _mcs_order([set(a) for a in g.adj]) == want


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


def test_forward_checking_keeps_the_first_coloring_on_tight_lists():
    # short lists on dense graphs and hypergraphs with small edges saturate
    # edges early, so both look-ahead rules fire; a rule that forbade a
    # color some completion needs would return a later coloring, or None
    rng = random.Random(23)
    for seed in range(60):
        g = generate("gnp", seed=seed, n=7, p=0.45 + 0.1 * (seed % 3))
        lists = random_lists(7, 3, range(1, 6), rng)
        for mode, r in (("proper", 0), ("dynamic", 2), ("dynamic", 3)):
            assert solve_list_coloring(g, lists, mode, r) == oracle_first_coloring(g, lists, mode, r)
        edges = [rng.sample(range(7), rng.choice((2, 3, 3))) for _ in range(6)]
        h = build_hypergraph(7, edges)
        for r in (2, 3):
            assert solve_list_coloring(h, lists, "strong", r) == oracle_first_coloring(h, lists, "strong", r)


def test_distinct_color_bound_keeps_the_first_coloring():
    # lists from a small palette leave an edge that takes a repeat short of
    # colors its uncolored members can still bring, so the distinct-color
    # bound fires: on one side of a dense bipartite graph, and on large
    # hyperedges whose members' 2-color lists overlap.  A bound that counted
    # a color no completion can add would return a later coloring, or None
    rng = random.Random(27)
    for seed in range(60):
        a = 3 + seed % 2
        g = build_graph(7, [(u, v) for u in range(a) for v in range(a, 7) if rng.random() < 0.85])
        lists = random_lists(7, 3, range(1, 5), rng)
        for r in (2, 3):
            assert solve_list_coloring(g, lists, "dynamic", r) == oracle_first_coloring(g, lists, "dynamic", r)
        edges = [rng.sample(range(7), rng.choice((4, 5))) for _ in range(5)]
        h = build_hypergraph(7, edges)
        lists = random_lists(7, 2, range(1, 3 + seed % 2), rng)
        for r in (3, 4):
            assert solve_list_coloring(h, lists, "strong", r) == oracle_first_coloring(h, lists, "strong", r)
    # in first-use order the bound fires once all of 1..k are in use
    for a, b in ((2, 4), (2, 5), (3, 4)):
        g = generate("complete_bipartite", a=a, b=b)
        for r in (2, 3):
            for k in range(3, min(r, a) + min(r, b) + 1):
                assert _search(g.n, *_constraints(g, "dynamic", r), ks=(k,))[1] == oracle_first_use_coloring(g, k, r)
    for seed in range(40):
        g = generate("gnp", seed=seed, n=9, p=0.5 + 0.1 * (seed % 3))
        for k in (4, 5):
            assert _search(g.n, *_constraints(g, "dynamic", 3), ks=(k,))[1] == oracle_first_use_coloring(g, k, 3)


def oracle_first_use_coloring(g, k, r, order=None):
    """The first valid r-dynamic coloring from 1..k along order (default: degree, ties by id).

    That is the lexicographically least one along the order, which is in
    first-use form (a color is at most one more than every color before it),
    so brute force over the first-use forms alone finds it.
    """
    if order is None:
        order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    prefixes = [()]
    for _ in order:
        prefixes = [p + (c,) for p in prefixes for c in range(1, min(max(p, default=0) + 1, k) + 1)]
    valid = oracle_validator(g, r)
    for combo in prefixes:
        coloring = [None] * g.n
        for v, c in zip(order, combo):
            coloring[v] = c
        if valid(coloring):
            return coloring
    return None


def _blown_up(g, sizes):
    """g with vertex v replaced by sizes[v] copies of it, pairwise twins: N(copy) = copies of N(v)."""
    copies, n = [], 0
    for size in sizes:
        copies.append(range(n, n + size))
        n += size
    return build_graph(n, [(a, b) for u, v in g.edges for a in copies[u] for b in copies[v]]), copies


def test_twin_cut_keeps_the_first_coloring():
    # vertices in the same edges (on a graph: with the same neighborhood)
    # and, in list mode, with the same list take their colors in ascending
    # order along the search order; a cut that also bound vertices whose
    # edges or lists differ would return a later coloring, or None
    rng = random.Random(30)
    bipartite = [generate("complete_bipartite", a=a, b=b) for a, b in ((1, 3), (2, 3), (2, 4), (3, 3), (3, 4))]
    blown = [
        _blown_up(generate("gnp", seed=seed, n=4 + seed % 2, p=0.5 + 0.1 * (seed % 3)),
                  [rng.choice((1, 2, 2, 3)) for _ in range(4 + seed % 2)])
        for seed in range(30)
    ]
    blown = [(g, copies) for g, copies in blown if g.n <= 9]
    for g in bipartite:
        for r in (1, 2, 3):
            for k in range(2, 7):
                assert _search(g.n, *_constraints(g, "dynamic", r), ks=(k,))[1] == oracle_first_use_coloring(g, k, r)
    for g, copies in blown:
        for mode, r in (("proper", 0), ("dynamic", 2), ("dynamic", 3)):
            for k in (3, 4):
                got = _search(g.n, *_constraints(g, mode, r), ks=(k,))[1]
                assert got == oracle_first_use_coloring(g, k, r)
        # copies of a vertex share its list, but for one copy in four
        lists = [None] * g.n
        for cs in copies:
            shared = random_lists(1, 2, range(1, 5), rng)[0]
            for v in cs:
                lists[v] = shared if rng.random() < 0.75 else random_lists(1, 2, range(1, 5), rng)[0]
        for mode, r in (("proper", 0), ("dynamic", 2), ("dynamic", 3)):
            assert solve_list_coloring(g, lists, mode, r) == oracle_first_coloring(g, lists, mode, r)
    # strong mode: each hyperedge gets the same added vertices, which are twins
    for seed in range(40):
        n = 6
        edges = [rng.sample(range(4), rng.choice((1, 2, 3))) + [4, 5] for _ in range(4)]
        if seed % 2:
            edges.append([rng.randrange(4), 4])  # 4 and 5 no longer share every edge
        h = build_hypergraph(n, edges)
        for r in (2, 3):
            for k in (2, 3, 4):
                got = _search(h.n, *_constraints(h, "strong", r), ks=(k,))[1]
                assert got == oracle_first_coloring(h, full_lists(n, k), "strong", r)
            lists = random_lists(n, 2, range(1, 4), rng)
            if seed % 3:
                lists[5] = lists[4]
            assert solve_list_coloring(h, lists, "strong", r) == oracle_first_coloring(h, lists, "strong", r)


def _union(parts, rng=None):
    """The disjoint union of the graphs parts, its ids shuffled by rng when given."""
    edges, n = [], 0
    for g in parts:
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    ids = list(range(n))
    if rng is not None:
        rng.shuffle(ids)
    return build_graph(n, [(ids[u], ids[v]) for u, v in edges])


def test_blocks_keep_the_first_coloring_on_disconnected_instances():
    # no cut reads across components, so a dead end whose conflict set is
    # empty answers None; the first valid coloring restricts on each
    # component to that component's first, so the results stay the
    # brute-force oracles' along the search order.
    # in degree order these components interleave: a search that answered
    # None past a component's first vertex in that order would give up on a
    # prefix of the other component, and return None
    p3_k3 = build_graph(6, [(0, 3), (1, 3), (2, 4), (2, 5), (4, 5)])
    lists = [[2, 3], [2], [2, 3], [1, 2], [1], [1, 2]]
    assert solve_list_coloring(p3_k3, lists) == oracle_first_coloring(p3_k3, lists) == [2, 2, 3, 1, 1, 2]
    p2_p3 = build_graph(5, [(0, 2), (1, 3), (1, 4)])
    lists = [[1, 3], [2, 3], [3], [1], [1, 2]]
    got = solve_list_coloring(p2_p3, lists, "dynamic", 3)
    assert got == oracle_first_coloring(p2_p3, lists, "dynamic", 3) == [1, 3, 3, 1, 2]
    rng = random.Random(31)
    for seed in range(40):
        parts = [generate("gnp", seed=100 * seed + i, n=rng.randint(1, 3), p=rng.choice((0.3, 0.5, 0.8)))
                 for i in range(rng.randint(2, 3))]
        g = _union(parts, rng)
        order = _mcs_order(g.adj)
        for mode, r in (("proper", 0), ("dynamic", 1), ("dynamic", 2), ("dynamic", 3)):
            k, coloring = _least_k(g, mode, r, g.n)
            assert coloring == oracle_first_use_coloring(g, k, r, order)
            assert k == 1 or oracle_first_use_coloring(g, k - 1, r, order) is None
            lists = random_lists(g.n, rng.choice((2, 3)), range(1, 5), rng)
            assert solve_list_coloring(g, lists, mode, r) == oracle_first_coloring(g, lists, mode, r)
    # strong mode: the hyperedges of each part lie in its own range of ids
    for seed in range(40):
        n, edges = 0, []
        for _ in range(rng.randint(2, 3)):
            size = rng.randint(1, 3)
            for _ in range(rng.randint(0, 2)):
                edges.append([n + v for v in rng.sample(range(size), rng.randint(1, size))])
            n += size
        h = build_hypergraph(n, edges)
        for r in (1, 2, 3):
            k, coloring = _least_k(h, "strong", r, h.n)
            assert coloring == oracle_first_coloring(h, full_lists(n, k), "strong", r)
            assert k == 1 or oracle_first_coloring(h, full_lists(n, k - 1), "strong", r) is None
            lists = random_lists(n, rng.choice((1, 2)), range(1, 4), rng)
            assert solve_list_coloring(h, lists, "strong", r) == oracle_first_coloring(h, lists, "strong", r)


def test_a_component_that_cannot_be_colored_ends_the_search():
    # the gnp part comes first in both orders and colors at once; the later
    # component needs more colors.  Backtracking through the gnp part's
    # colorings, each of these calls ran past 10 s
    c5 = generate("cycle", n=5)
    for n in (20, 30, 40):
        g = _union([generate("gnp", seed=1, n=n, p=4 / n), c5])
        assert chi_exact(g, "dynamic", 2, max_n=g.n) == 5
    g = _union([generate("gnp", seed=1, n=20, p=4 / 20), c5])
    assert solve_list_coloring(g, full_lists(g.n, 4), "dynamic", 2) is None
    g = _union([generate("gnp", seed=1, n=60, p=4 / 60), generate("complete", n=4)])
    assert chi_exact(g, max_n=g.n) == 4


def test_block_rule_does_not_recolor_earlier_blocks(monkeypatch):
    # a path, which 1..k color, comes first in the order; a later component
    # cannot be colored from 1..k.  Every color a search iterator hands out
    # is logged with its depth: once the later component is reached, no
    # vertex of the path tries another color
    tried = []

    def logged(colors):
        # the iterator of depth d + 1 is made right after depth d's color is accepted
        depth = tried[-1][0] + 1 if tried else 0
        return ((tried.append((depth, c)), c)[1] for c in colors)

    monkeypatch.setattr(coloring_mod, "iter", logged, raising=False)
    path = [(0, 1), (1, 2), (2, 3)]
    k4 = list(itertools.combinations(range(4, 8), 2))
    c5 = [(4, 5), (5, 6), (6, 7), (7, 8), (4, 8)]
    for n, edges, mode, r, k in ((8, path + k4, "proper", 0, 3), (9, path + c5, "dynamic", 2, 4)):
        tried.clear()
        g = build_graph(n, edges)
        assert _search(n, *_constraints(g, mode, r), ks=(k,), order=list(range(n))) == (None, None)
        reached = next(i for i, (depth, _) in enumerate(tried) if depth == 4)
        assert all(depth >= 4 for depth, _ in tried[reached:])
        # the path's colors are its first descent alone
        colors = [None] * 4
        for depth, c in tried[:reached]:
            colors[depth] = c
        p4 = build_graph(4, path)
        assert colors == _search(4, *_constraints(p4, mode, r), ks=(k,), order=[0, 1, 2, 3])[1]


def test_a_dead_end_jumps_past_a_vertex_it_did_not_read(monkeypatch):
    # the path 1-0-3-2 in order 0, 1, 2, 3.  Vertex 2's only color fills
    # N(3) with 3's list once vertex 0 holds 1: the dead end at depth 2 read
    # depth 0 alone, so vertex 1, in the same component, tries no second color
    tried = []

    def logged(colors):
        depth = tried[-1][0] + 1 if tried else 0
        return ((tried.append((depth, c)), c)[1] for c in colors)

    monkeypatch.setattr(coloring_mod, "iter", logged, raising=False)
    g = build_graph(4, [(1, 0), (0, 3), (3, 2)])
    lists = _normalize_lists(4, [[1, 2], [1, 2, 3], [3], [1, 3]])
    assert _search(4, *_constraints(g, "proper", 0), lists=lists, order=[0, 1, 2, 3]) == (None, [2, 1, 3, 1])
    # vertex 1 skips 1 (on N(1)) and takes 2; after the dead end vertex 0 takes 2
    assert tried == [(0, 1), (1, 1), (1, 2), (2, 3), (0, 2), (1, 1), (2, 3), (3, 1)]
    assert solve_list_coloring(g, lists) == oracle_first_coloring(g, lists) == [2, 1, 3, 1]


def test_dynamic_list_search_refutes_a_relabelled_cycle():
    # C_40 has no 2-dynamic coloring from 3 colors (40 is not a multiple of
    # 3).  Relabelled, the degree order scatters the cycle; backtracking one
    # depth at a time took about 3 s on a 2-core VM, and relabelled C_60,
    # which has one, ran past 20 s
    for n, colorable in ((40, False), (60, True)):
        p = list(range(n))
        random.Random(0).shuffle(p)
        g = build_graph(n, [(p[u], p[v]) for u, v in generate("cycle", n=n).edges])
        coloring = solve_list_coloring(g, [[1, 2, 3]] * n, "dynamic", 2)
        assert (coloring is not None) == colorable
        assert coloring is None or is_r_dynamic(g, coloring, 2)


def test_a_jump_keeps_the_neighborhoods_the_bound_scanned():
    # in this order the distinct-color bound prunes on the colors of the N(u)
    # of uncolored members u; a conflict set without those N(u) jumps past
    # every 3-coloring and answers 4
    pairs = [(0, 1), (0, 4), (0, 5), (0, 6), (0, 8), (1, 5), (1, 9), (2, 3), (2, 7), (3, 4)]
    pairs += [(3, 8), (3, 10), (4, 9), (5, 7), (5, 9), (6, 7), (6, 9), (7, 10), (8, 9)]
    g = build_graph(11, pairs)
    order = [7, 0, 10, 9, 6, 2, 3, 5, 4, 1, 8]
    k, colors = _search(11, *_constraints(g, "dynamic", 2), ks=range(1, 12), order=order)
    assert k == oracle_chi(g, 2) == 3
    assert colors == [2, 1, 2, 3, 1, 3, 3, 1, 1, 2, 2]
    assert oracle_valid(g, colors, 2)


def test_a_deep_list_search_allocates_linear_memory():
    # the search on C_12000 goes 12,000 deep without a dead end.  Its
    # conflict sets hold edge ids and are made at a depth's first failure,
    # and its membership index is the graph's own rows, so its allocations
    # peak near 7.5 MB (9 MB with the index built as n fresh lists, 10.5 MB
    # with that and a set pushed at every depth; 8 MB for chronological
    # backtracking); sets kept as int bitsets over depths, each as wide as
    # the deepest depth it names, peaked at 33 MB and grew with n squared
    n = 12000
    g = generate("cycle", n=n)
    tracemalloc.start()
    try:
        coloring = solve_list_coloring(g, [[1, 2, 3]] * n, "dynamic", 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert is_r_dynamic(g, coloring, 2)
    assert peak < 20 * 2**20


@settings(max_examples=200, deadline=None)
@given(case=listed_graphs())
def test_first_fit_is_the_first_leaf_of_the_search(case):
    # proper mode never prunes, so a first-fit descent that never dead-ends
    # is the search's first descent, and its leaf is the coloring returned
    g, lists = case
    lists = _normalize_lists(g.n, lists)
    coloring = _first_fit(g.adj, lists)
    if coloring is not None:
        assert coloring == _search(g.n, *_constraints(g, "proper", 0), lists=lists)[1]


def test_solve_list_searches_after_a_first_fit_dead_end():
    # vertex 1 goes first (degree 2) and takes color 1, the only color of
    # vertex 0; the search backtracks to color 2 at vertex 1
    g = build_graph(3, [(0, 1), (1, 2)])
    lists = [(1,), (1, 2), (3,)]
    assert _first_fit(g.adj, _normalize_lists(3, lists)) is None
    assert solve_list_coloring(g, lists) == [1, 2, 3]


def test_solve_list_on_the_empty_graph_runs_no_search(monkeypatch):
    # first-fit colors the empty graph with [], a falsy coloring: no dead end
    calls = []
    search = coloring_mod._search
    monkeypatch.setattr(coloring_mod, "_search", lambda *args, **kw: calls.append(args) or search(*args, **kw))
    assert solve_list_coloring(build_graph(0, []), []) == []
    assert calls == []


@pytest.mark.parametrize("r", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(case=listed_hypergraphs())
def test_solve_strong_returns_first_coloring_in_search_order(r, case):
    h, lists = case
    assert solve_list_coloring(h, lists, mode="strong", r=r) == oracle_first_coloring(h, lists, "strong", r)


@st.composite
def small_graphs(draw, min_n=0, max_n=7):
    # repeated and reversed pairs collapse to one edge; no pairs is edgeless
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    return build_graph(n, draw(st.lists(st.sampled_from(pairs))) if pairs else [])


@st.composite
def small_hypergraphs(draw, min_n=0, max_n=7):
    # duplicate and empty edges are kept; no edges is edgeless
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = draw(st.lists(st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=5)) if n else []
    if edges and draw(st.booleans()):
        edges.append(edges[draw(st.integers(min_value=0, max_value=len(edges) - 1))])
    return build_hypergraph(n, edges)


@pytest.mark.parametrize("mode,r", GRAPH_MODES)
@settings(max_examples=100, deadline=None)
@given(g=small_graphs())
def test_least_k_coloring_is_first_from_full_lists(mode, r, g):
    # on a graph _least_k searches in _mcs_order, so its coloring is the
    # first valid first-use coloring along that order; the list search below
    # goes in degree order
    k, coloring = _least_k(g, mode, r, g.n)
    assert k == chi_exact(g, mode, r)
    assert coloring == oracle_first_use_coloring(g, k, r, _mcs_order(g.adj))
    if k > 1:
        assert solve_list_coloring(g, full_lists(g.n, k - 1), mode, r) is None


@pytest.mark.parametrize("mode,r", GRAPH_MODES)
@settings(max_examples=60, deadline=None)
@given(g=small_graphs(min_n=1, max_n=5), k=st.integers(min_value=1, max_value=6))
def test_least_k_at_one_k_decides_that_k(mode, r, g, k):
    # choosability's k-coloring rung: colors 1..k admit a coloring iff k >= chi
    found, coloring = _least_k(g, mode, r, g.n, (k,))
    if k >= oracle_chi(g, r):
        assert found == k and max(coloring) <= k and oracle_valid(g, coloring, r)
    else:
        assert (found, coloring) == (None, None)


@pytest.mark.parametrize("r", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(h=small_hypergraphs(min_n=1, max_n=5), k=st.integers(min_value=1, max_value=6))
def test_least_k_strong_at_one_k_decides_that_k(r, h, k):
    found, coloring = _least_k(h, "strong", r, h.n, (k,))
    if k >= oracle_strong_chi(h, r):
        assert found == k and max(coloring) <= k
        assert all(len({coloring[v] for v in e}) >= min(r, len(e)) for e in h.edges)
    else:
        assert (found, coloring) == (None, None)


@pytest.mark.parametrize("r", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(h=small_hypergraphs())
def test_least_k_strong_coloring_is_first_from_full_lists(r, h):
    # construction_report lifts this coloring in place of a second search
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


# --- the validity walk -----------------------------------------------------

WALK_COLORS = [1, 2, 3, float("nan"), float("nan")]  # two NaN objects, each drawn any number of times


@settings(max_examples=300, deadline=None)
@given(g=small_graphs(), data=st.data())
def test_is_proper_is_r_dynamic_at_r_1(g, data):
    # every vertex with a neighbor sees at least one color, so 1-dynamic is proper
    coloring = data.draw(st.lists(st.sampled_from(WALK_COLORS), min_size=g.n, max_size=g.n))
    assert is_proper(g, coloring) == is_r_dynamic(g, coloring, 1)


@pytest.mark.parametrize("r", [1, 2, 3])
@settings(max_examples=100, deadline=None)
@given(g=small_graphs(), h=small_hypergraphs(), data=st.data())
def test_is_proper_and_is_r_strong_match_the_definitions(r, g, h, data):
    colors = st.integers(min_value=1, max_value=3)
    c = data.draw(st.lists(colors, min_size=g.n, max_size=g.n))
    assert is_proper(g, c) == oracle_valid(g, c)
    c = data.draw(st.lists(colors, min_size=h.n, max_size=h.n))
    assert is_r_strong(h, c, r) == all(len({c[v] for v in e}) >= min(r, len(e)) for e in h.edges)


@settings(max_examples=100, deadline=None)
@given(g=small_graphs(), h=small_hypergraphs(), r=st.integers(min_value=-2, max_value=0), data=st.data())
def test_checkers_keep_their_error_texts(g, h, r, data):
    # r is checked before the length
    for check, x, args in ((is_proper, g, ()), (is_r_dynamic, g, (1,)), (is_r_strong, h, (1,))):
        size = data.draw(st.integers(min_value=0, max_value=x.n + 2).filter(lambda k: k != x.n))
        with pytest.raises(ValueError, match=f"^coloring has {size} entries for {x.n} vertices$"):
            check(x, [1] * size, *args)
        if args:
            with pytest.raises(ValueError, match=f"^r must be >= 1, got {r}$"):
                check(x, [1] * size, r)


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
