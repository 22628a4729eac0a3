from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from dyncolor import build_graph, degree_stats, generate, greedy_r_dynamic, is_proper, is_r_dynamic
from .helpers import oracle_greedy_r_dynamic, random_lists


def lists_of_size(g, size, seed):
    rng = random.Random(seed)
    return random_lists(g.n, size, range(1, 3 * size), rng)


def test_greedy_k4_full_lists():
    g = generate("complete", n=4)
    lists = [list(range(1, 8)) for _ in range(4)]  # 2*3+1
    assert greedy_r_dynamic(g, lists, 2) == [1, 2, 3, 4]


def test_greedy_respects_lists_and_order():
    g = generate("cycle", n=6)
    lists = [[10, 20, 30, 40, 50] for _ in range(6)]
    c = greedy_r_dynamic(g, lists, 2)
    assert all(col in {10, 20, 30, 40, 50} for col in c)
    assert is_r_dynamic(g, c, 2)
    c2 = greedy_r_dynamic(g, lists, 2, order=[5, 4, 3, 2, 1, 0])
    assert is_r_dynamic(g, c2, 2)


def test_greedy_rejects_short_lists():
    g = generate("complete", n=4)
    with pytest.raises(ValueError):
        greedy_r_dynamic(g, [[1, 2, 3, 4, 5, 6]] * 4, 2)  # needs 7
    with pytest.raises(ValueError):
        greedy_r_dynamic(g, [[1]] * 3, 2)
    c4 = generate("cycle", n=4)
    with pytest.raises(ValueError):
        greedy_r_dynamic(c4, [[1, 2, 3, 4, 5]] * 4, 2, order=[0, 1, 2, 2])


def test_greedy_always_succeeds_at_floor():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(3, 12)
        g = generate("gnp", seed=trial, n=n, p=rng.choice([0.2, 0.5, 0.8]))
        r = rng.choice([1, 2, 3])
        delta = degree_stats(g).max_degree
        size = r * delta + 1
        lists = random_lists(n, size, range(1, 2 * size + 2), rng)
        c = greedy_r_dynamic(g, lists, r)
        assert is_proper(g, c)
        assert is_r_dynamic(g, c, r)
        assert all(c[v] in lists[v] for v in range(n))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
def test_greedy_property(seed, r):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    g = generate("gnp", seed=seed, n=n, p=0.4)
    delta = degree_stats(g).max_degree
    size = r * delta + 1
    lists = random_lists(n, size, range(1, size + 5), rng)
    c = greedy_r_dynamic(g, lists, r)
    assert is_proper(g, c) and is_r_dynamic(g, c, r)


def test_greedy_edgeless():
    g = build_graph(3, [])
    assert greedy_r_dynamic(g, [[5], [6], [7]], 2) == [5, 6, 7]


def test_greedy_empty_graph_checks_the_list_count():
    with pytest.raises(ValueError, match="^list assignment has 2 entries for 0 vertices$"):
        greedy_r_dynamic(build_graph(0, []), [[1], [2]], 1)
    assert greedy_r_dynamic(build_graph(0, []), [], 1) == []


@settings(max_examples=80)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=30),
    st.sampled_from([0.1, 0.25, 0.5, 0.8]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
)
def test_greedy_matches_first_version(seed, n, p, r, extra, shuffled):
    # the per-vertex countdown of missing neighbor colors must pick exactly
    # the colors the first version's recomputed quotas picked
    rng = random.Random(seed)
    g = generate("gnp", seed=seed, n=n, p=p)
    size = r * degree_stats(g).max_degree + 1 + extra
    lists = random_lists(n, size, range(1, 2 * size + 1), rng)
    order = None
    if shuffled:
        order = list(range(n))
        rng.shuffle(order)
    assert greedy_r_dynamic(g, lists, r, order) == oracle_greedy_r_dynamic(g, lists, r, order)
