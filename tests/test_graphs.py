from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dyncolor import (
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
)
from dyncolor import graphs as graphs_module

from .helpers import oracle_gnp, oracle_gnp_skip


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
    assert g.adj[1] == frozenset({2})
    assert g.degree(0) == 1


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(-1, [])


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


@given(graphs())
def test_degeneracy_at_most_max_degree(g):
    if g.n:
        assert degeneracy(g) <= max(g.degree(v) for v in range(g.n))
