from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from dyncolor import (
    Graph,
    bipartition,
    build_graph,
    build_hypergraph,
    degeneracy,
    degree_stats,
    generate,
    incidence_graph,
    is_bipartite,
    is_k_degenerate,
    neighborhood_hypergraph,
    parse_graph,
    serialize_graph,
)
from dyncolor import graphs as graphs_module
from dyncolor.choosability import _core_components

from .helpers import oracle_build_graph, oracle_degeneracy, oracle_gnp, oracle_gnp_skip, oracle_k_core


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return build_graph(n, edges)


@st.composite
def hypergraphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=5))
    edges = [
        draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n))
        for _ in range(m)
    ]
    return build_hypergraph(n, edges)


def test_build_graph_normalizes_and_dedups():
    g = build_graph(4, [(2, 1), (1, 2), (0, 3)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.m == 2
    assert g.adj[1] == (2,)
    assert g.degree(0) == 1


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(-1, [])


def _built(build, n, edges):
    try:
        return build(n, edges)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _graph_and_edges(n, edges):
    # the oracle's result form: Graph equality compares n and adj alone
    g = build_graph(n, edges)
    return g, g.edges


@settings(max_examples=300)
@given(st.integers(min_value=-1, max_value=8), st.data())
def test_build_graph_matches_oracle(n, data):
    # duplicates, reversed pairs, isolated vertices and n = 0 come up on
    # their own; half the lists keep their bad edges, which must raise alike
    vertex = st.integers(min_value=-1, max_value=max(n, 0))
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    if data.draw(st.booleans()):
        edges = [(u, v) for u, v in edges if 0 <= u < n and 0 <= v < n and u != v]
    assert _built(_graph_and_edges, n, edges) == _built(oracle_build_graph, n, edges)


def test_build_graph_matches_oracle_on_dense_shuffled_edges():
    rng = random.Random(3)
    edges = [(u, v) for u in range(60) for v in range(60) if u != v and rng.random() < 0.6]
    rng.shuffle(edges)
    assert _graph_and_edges(60, edges) == oracle_build_graph(60, edges)


def test_graph_stores_adjacency_alone():
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "adj"]


def test_edges_derived_from_shuffled_duplicated_reversed_pairs():
    rng = random.Random(8)
    pairs = [(u, v) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.3]
    want = tuple(pairs)
    builds = []
    for _ in range(2):
        listed = pairs + [(v, u) for u, v in rng.sample(pairs, len(pairs) // 2)] + rng.sample(pairs, 20)
        rng.shuffle(listed)
        g = build_graph(30, listed)
        assert g.edges == want and g.m == len(g.edges)
        assert parse_graph(serialize_graph(g)) == g
        builds.append(g)
    assert builds[0] == builds[1] and hash(builds[0]) == hash(builds[1])


def _assert_rows(g):
    # each row an ascending tuple, the rows symmetric and loop-free
    for v, row in enumerate(g.adj):
        assert type(row) is tuple and all(a < b for a, b in zip(row, row[1:])), (v, row)
        assert v not in row and all(v in g.adj[u] for u in row), (v, row)


def test_every_producer_holds_ascending_tuple_rows():
    _assert_rows(build_graph(5, [(3, 1), (1, 3), (0, 4), (4, 0), (2, 1), (1, 2), (0, 4), (4, 3)]))
    _assert_rows(parse_graph("p edge 5 4\ne 5 1\ne 4 2\ne 2 4\ne 3 1\n"))
    for kind, params in [
        ("cycle", {"n": 9}),
        ("complete", {"n": 7}),
        ("complete_bipartite", {"a": 3, "b": 5}),
        ("gnp", {"n": 60, "p": 0.2}),
        ("random_regular", {"n": 30, "d": 4}),
        ("random_regular", {"n": 30, "d": 25}),  # the dense branch: a complement
    ]:
        g = generate(kind, seed=2, **params)
        _assert_rows(g)
        if kind == "random_regular":
            assert {len(row) for row in g.adj} == {params["d"]}
    _assert_rows(incidence_graph(build_hypergraph(6, [{5, 0, 3}, {2, 1}, {4, 3, 1, 0}]))[0])
    g = generate("gnp", seed=5, n=40, p=0.15)
    comps = list(_core_components(g, 2))
    assert comps
    for c in comps:
        _assert_rows(c)


def test_adjacency_rows_take_a_tuple_each():
    # 8 neighbors per vertex: a tuple row is 40 + 8 * 8 = 104 bytes on 64-bit
    # CPython, a frozenset row 728
    g = build_graph(2000, [(v, (v + s) % 2000) for v in range(2000) for s in (1, 2, 3, 4)])
    assert sum(map(sys.getsizeof, g.adj)) <= 2000 * 120


def _footprint(adj):
    # bytes of the tuple, its rows and the int objects they hold
    # (the small ints are the interpreter's, shared by everyone)
    ints = {id(v): v for nbrs in adj for v in nbrs}
    return (
        sys.getsizeof(adj)
        + sum(map(sys.getsizeof, adj))
        + sum(sys.getsizeof(v) for v in ints.values() if not -5 <= v <= 256)
    )


def test_graph_holds_about_its_adjacency_alone():
    # with its pair tuple stored as well this graph held about 1.4 times its
    # adjacency; gc.collect empties the interpreter's free lists, which keep
    # tuples the generator let go
    tracemalloc.start()
    try:
        g = generate("gnp", seed=1, n=2000, p=0.005)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * _footprint(g.adj)


def test_generate_cycle_complete_bipartite():
    c5 = generate("cycle", n=5)
    assert c5.m == 5 and all(c5.degree(v) == 2 for v in range(5))
    k4 = generate("complete", n=4)
    assert k4.m == 6
    k23 = generate("complete_bipartite", a=2, b=3)
    assert k23.m == 6
    assert sorted(k23.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]
    with pytest.raises(ValueError):
        generate("cycle", n=2)
    with pytest.raises(ValueError):
        generate("nonsense", n=3)


def test_generate_gnp_determinism_and_extremes():
    a = generate("gnp", seed=5, n=10, p=0.4)
    b = generate("gnp", seed=5, n=10, p=0.4)
    assert a == b
    c = generate("gnp", seed=6, n=10, p=0.4)
    assert a != c  # overwhelmingly likely; frozen seeds
    assert generate("gnp", seed=1, n=8, p=0.0).m == 0
    assert generate("gnp", seed=1, n=8, p=1.0).m == 28


def test_generate_random_regular():
    for seed in range(5):
        g = generate("random_regular", seed=seed, n=10, d=3)
        assert all(g.degree(v) == 3 for v in range(10))
    with pytest.raises(ValueError):
        generate("random_regular", seed=0, n=5, d=3)  # odd n*d
    with pytest.raises(ValueError):
        generate("random_regular", seed=0, n=4, d=4)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([0, 5e-324, 1e-9, 0.1, 0.5, 1 - 1e-12, 1, 1.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gnp_matches_skip_oracle(n, p, seed):
    assert generate("gnp", seed=seed, n=n, p=p) == oracle_gnp_skip(n, p, seed)


def test_gnp_draws_once_per_kept_edge(monkeypatch):
    calls = []

    class CountingRandom(random.Random):
        def random(self):
            calls.append(None)
            return super().random()

    monkeypatch.setattr(graphs_module.random, "Random", CountingRandom)
    g = generate("gnp", seed=0, n=2000, p=0.005)
    assert 0 < len(calls) <= g.m + 1
    for p, m in [(0, 0), (0.0, 0), (1, 780), (1.0, 780)]:
        calls.clear()
        assert generate("gnp", seed=0, n=40, p=p).m == m
        assert not calls
    # a skip past the last pair ends the walk; none overflows int()
    for p in [5e-324, 1e-300, 1e-12]:
        calls.clear()
        assert generate("gnp", seed=0, n=2000, p=p).m == 0
        assert len(calls) == 1


def test_gnp_pair_frequencies_near_p():
    # 200 fixed seeds at n = 12, p = 0.3: a pair's frequency has standard
    # deviation 0.032 and the mean edge count (19.8 expected) 0.26, so the
    # bounds below sit at about 4.5 and 4 standard deviations
    n, p, seeds = 12, 0.3, 200
    counts = dict.fromkeys(itertools.combinations(range(n), 2), 0)
    total = 0
    for seed in range(seeds):
        g = generate("gnp", seed=seed, n=n, p=p)
        total += g.m
        for e in g.edges:
            counts[e] += 1
    assert all(abs(c / seeds - p) <= 0.15 for c in counts.values())
    assert abs(total / seeds - p * len(counts)) <= 1.05


def test_old_gnp_stream_kept_as_oracle():
    # graphs named by their seed before the skip walk, such as the
    # choosability probe gnp(n=8, p=0.45, seed=13), are rebuilt by oracle_gnp
    g = oracle_gnp(8, 0.45, 13)
    assert g.m == 13 and degeneracy(g) == 3 and not is_bipartite(g)


def test_gnp_seeded_graphs_frozen():
    # pins the draw stream, math.log included, on every Python that runs this
    cases = [(2000, 0.005, s) for s in range(3)] + [(40, 0.1, 7), (30, 0.5, 8), (25, 1 - 1e-12, 9)]
    seeded = [generate("gnp", seed=s, n=n, p=p) for n, p, s in cases]
    assert [degree_stats(g).max_degree for g in seeded[:3]] == [21, 23, 22]
    blob = json.dumps([[g.n, g.edges] for g in seeded]).encode()
    assert hashlib.sha256(blob).hexdigest() == "10b855bd9f5b5c7d0f98911d4f8c44334be933283d956c98c21e24ccf08c3049"


@pytest.mark.parametrize(
    "n, d",
    [(0, 0), (1, 0), (7, 0), (2, 1), (10, 1), (40, 6), (40, 8), (41, 20), (40, 38), (40, 39), (2000, 4)],
)
def test_random_regular_simple_regular_and_seeded(n, d):
    for seed in range(3):
        g = generate("random_regular", seed=seed, n=n, d=d)
        assert g.n == n and g.m == n * d // 2
        assert all(g.degree(v) == d for v in range(n))
        assert generate("random_regular", seed=seed, n=n, d=d) == g


def test_random_regular_reaches_every_2_regular_graph_on_6_vertices():
    # 60 hexagons and 10 pairs of disjoint triangles; a generator that never
    # closes a short cycle misses the triangles
    seen = {generate("random_regular", seed=seed, n=6, d=2).edges for seed in range(3000)}
    assert len(seen) == 70


def test_generate_rejects_missing_and_unexpected_parameters():
    for kind, params, names in [
        ("gnp", {"n": 5}, "n, p"),
        ("complete_bipartite", {"a": 2}, "a, b"),
        ("cycle", {"n": 5, "p": 0.5}, "n"),
        ("random_regular", {}, "n, d"),
    ]:
        with pytest.raises(ValueError, match=f"{kind} takes parameters {names}"):
            generate(kind, **params)


def test_degree_stats():
    g = build_graph(3, [])
    s = degree_stats(g)
    assert s.max_degree == 0 and s.min_degree == 0
    with pytest.raises(ValueError):
        degree_stats(build_graph(0, []))


def test_neighborhood_hypergraph_keeps_empty_edges():
    g = build_graph(4, [(0, 1), (1, 2)])  # vertex 3 isolated
    h = neighborhood_hypergraph(g)
    assert h.edges[0] == frozenset({1})
    assert h.edges[1] == frozenset({0, 2})
    assert h.edges[3] == frozenset()


def test_incidence_graph_shape():
    h = build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
    g, vertex_part, edge_part = incidence_graph(h)
    assert g.n == 6 and vertex_part == (0, 1, 2) and edge_part == (3, 4, 5)
    assert all(g.degree(e) == 2 for e in edge_part)
    assert all(g.degree(v) == 2 for v in vertex_part)
    assert is_bipartite(g)


@given(hypergraphs())
def test_incidence_graph_bipartite_with_edge_degrees(h):
    g, vertex_part, edge_part = incidence_graph(h)
    assert is_bipartite(g)
    for j, e in enumerate(h.edges):
        assert g.degree(h.n + j) == len(e)
    # every incidence crosses the parts
    for u, v in g.edges:
        assert (u < h.n) != (v < h.n)


def test_bipartition():
    assert bipartition(generate("cycle", n=5)) is None
    left, right = bipartition(generate("complete_bipartite", a=3, b=3))
    assert {len(left), len(right)} == {3}
    assert not is_bipartite(generate("complete", n=3))


def test_degeneracy():
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert degeneracy(path) == 1
    assert degeneracy(generate("cycle", n=6)) == 2
    assert degeneracy(generate("complete", n=4)) == 3
    assert is_k_degenerate(generate("cycle", n=6), 2)
    assert not is_k_degenerate(generate("cycle", n=6), 1)


def test_degeneracy_of_the_empty_graph():
    empty = build_graph(0, [])
    assert degeneracy(empty) == 0
    assert is_k_degenerate(empty, 0)


# vertex 5 starts in the bin of degree 3 and leaves at level 1; its entry at
# level 3 is stale, and must not lower vertex 0 out of the 4-core (K_5)
STALE_ENTRY = build_graph(8, [*generate("complete", n=5).edges, (0, 5), (5, 6), (5, 7)])


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=12))
@example(STALE_ENTRY)
def test_core_numbers_match_the_peel_oracles(g):
    core = graphs_module._core_numbers(g)
    assert degeneracy(g) == oracle_degeneracy(g)
    for k in range(7):
        assert {v for v in range(g.n) if core[v] >= k} == oracle_k_core(g, k)


@given(graphs())
def test_degeneracy_at_most_max_degree(g):
    if g.n:
        assert degeneracy(g) <= max(g.degree(v) for v in range(g.n))
