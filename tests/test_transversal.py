from __future__ import annotations

import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from dyncolor import (
    Hypergraph,
    build_hypergraph,
    candidate_family,
    generate,
    has_small_transversal,
    is_transversal,
    neighborhood_color_hypergraph,
)
from dyncolor.transversal import _hit_by_at_most, _mask
from .helpers import oracle_has_small_transversal


def test_is_transversal():
    h = build_hypergraph(4, [{0, 1}, {2, 3}])
    assert is_transversal(h, {0, 2})
    assert is_transversal(h, {0, 1, 2})
    assert not is_transversal(h, {0, 1})
    assert is_transversal(build_hypergraph(3, []), set())
    assert not is_transversal(build_hypergraph(3, [set()]), {0, 1, 2})


def test_candidate_family_two_disjoint_pairs():
    h = build_hypergraph(4, [{0, 1}, {2, 3}])
    fam = candidate_family(h, 2)
    assert sorted(fam.sets) == [
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({1, 2}),
        frozenset({1, 3}),
    ]


def test_candidate_family_len_and_iter():
    fam = candidate_family(build_hypergraph(4, [{0, 1}, {2, 3}]), 2)
    assert len(fam) == 4 and list(fam) == list(fam.sets)


def test_candidate_family_shared_vertex():
    h = build_hypergraph(3, [{0, 1}, {1, 2}])
    fam = candidate_family(h, 2)
    # picking 0 leaves {1,2} to cover; picking 1 covers both and pads with 0
    assert fam.sets == (frozenset({0, 1}), frozenset({0, 2}))
    assert all(is_transversal(h, s) for s in fam.sets)


def test_candidate_family_padding():
    # one edge, target 2: the second pick pads with the smallest free id
    h = build_hypergraph(4, [{2, 3}])
    fam = candidate_family(h, 2)
    assert fam.sets == (frozenset({0, 2}), frozenset({0, 3}))
    with pytest.raises(ValueError):
        candidate_family(build_hypergraph(4, []), 2)  # needs at least one edge
    # no room left to pad kills the branch
    assert candidate_family(build_hypergraph(2, [{0, 1}]), 3).sets == ()


def test_candidate_family_does_not_grow_with_n():
    # padding takes the smallest free ids lazily, so a hypergraph whose ids
    # are spread out (as neighborhood_color_hypergraph's colors can be)
    # costs what its edges cost
    edges = [{1, 2}, {2, 3}, {5, 7}]
    small = candidate_family(build_hypergraph(8, edges), 3)
    assert len(small) == 6
    assert candidate_family(build_hypergraph(10**6, edges), 3) == small


def test_candidate_family_empty_edge():
    h = build_hypergraph(3, [set()])
    assert candidate_family(h, 2).sets == ()


def test_uniformity_requirement():
    # the family and the decision both take mixed edge sizes
    h = build_hypergraph(3, [{0}, {1, 2}])
    fam = candidate_family(h, 2)
    assert frozenset({0, 1}) in fam.sets and frozenset({0, 2}) in fam.sets
    assert has_small_transversal(h, 2)


def test_candidate_family_size_bound():
    # |T| <= k^r where k is the common edge size
    h = build_hypergraph(9, [{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {0, 4, 8}])
    for r in (1, 2, 3):
        fam = candidate_family(h, r)
        assert len(fam.sets) <= 3 ** r
        for s in fam.sets:
            assert len(s) <= r


def test_has_small_transversal_agrees_with_brute_force():
    rng = random.Random(4242)
    for _ in range(80):
        n = rng.randint(2, 6)
        k = rng.randint(1, min(3, n))
        m = rng.randint(0, 4)
        edges = [set(rng.sample(range(n), k)) for _ in range(m)]
        h = build_hypergraph(n, edges)
        for r in (0, 1, 2, 3):
            want = oracle_has_small_transversal(h, r)
            assert has_small_transversal(h, r) == want


def test_has_small_transversal_r0():
    assert has_small_transversal(build_hypergraph(3, []), 0)
    assert not has_small_transversal(build_hypergraph(3, [{0}]), 0)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_family_members_are_transversals_when_one_exists(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    k = rng.randint(1, min(3, n))
    edges = [set(rng.sample(range(n), k)) for _ in range(rng.randint(1, 4))]
    h = build_hypergraph(n, edges)
    r = rng.randint(1, 3)
    fam = candidate_family(h, r)
    for s in fam.sets:
        assert len(s) == r
    # some member is a transversal exactly when a size-r transversal exists;
    # a smaller one pads out to size r only when the vertex pool allows it
    hit = any(is_transversal(h, s) for s in fam.sets)
    assert hit == (r <= n and oracle_has_small_transversal(h, r))


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.frozensets(st.integers(0, n - 1), max_size=n), max_size=5),
        )
    ),
    st.integers(min_value=0, max_value=3),
)
def test_hit_by_at_most_agrees_with_oracle(instance, k):
    # edges of mixed sizes, empty ones included, with the first repeated;
    # the kernel reads each edge as a bitset from _mask
    n, edges = instance
    h = build_hypergraph(n, edges + edges[:1])
    want = oracle_has_small_transversal(h, k)
    bits = {}
    assert _hit_by_at_most([_mask(e, bits) for e in h.edges], k) == want
    assert has_small_transversal(h, k) == want
    if k >= 1 and h.m:
        # the paper's family holds a transversal exactly when one of size k
        # exists, and one of size at most k pads out to k when n allows it
        hit = any(is_transversal(h, s) for s in candidate_family(h, k))
        assert hit == (k <= n and want)


@pytest.mark.parametrize("relabel", [lambda c: 10**12 + 3 * c, lambda c: c - 50])
@pytest.mark.parametrize("seed", range(5))
def test_has_small_transversal_ignores_vertex_values(relabel, seed):
    # the colors of a neighborhood hypergraph are its vertex ids; huge or
    # negative ids are numbered densely, so the answer is the small ids' one.
    # neighborhood_color_hypergraph refuses negative colors, so the
    # relabelled hypergraph is built from the edges directly.
    rng = random.Random(seed)
    g = generate("random_regular", n=10, d=4, seed=seed)
    lists = [rng.sample(range(6), 3) for _ in range(g.n)]
    for v in range(g.n):
        h = neighborhood_color_hypergraph(g, lists, v)
        big = Hypergraph(n=h.n, edges=tuple(frozenset(map(relabel, e)) for e in h.edges))
        for r in range(4):
            assert has_small_transversal(big, r) == oracle_has_small_transversal(h, r)


def test_has_small_transversal_sparse_large_n():
    # cost follows the edges, not the size of the vertex ids
    n = 10**12
    h = build_hypergraph(n, [{0, n - 1}, {1, n - 1}, {2, 3}])
    assert not has_small_transversal(h, 1)
    assert has_small_transversal(h, 2)


def _packs(edges, size):
    """True when some size edges are pairwise disjoint."""
    return any(
        all(not a & b for a, b in itertools.combinations(chosen, 2))
        for chosen in itertools.combinations(edges, size)
    )


def _sweep_instances():
    # about 2,000 seeded instances where the kernel's packing pass fires
    # (from k = 3 on; at k = 2 the forced sides refute instead):
    # up to 10 edges on ids 0..11 (empty and repeated edges included), and
    # lists shaped like the resampling check's neighbor sublists: 8 sublists
    # of 9 colors from 96 at k = 2 (lll_dense) and 8 of 4 from 24 at k = 3
    rng = random.Random(2603)
    for _ in range(1500):
        edges = []
        for _ in range(rng.randint(0, 10)):
            if edges and rng.random() < 0.1:
                edges.append(rng.choice(edges))
            else:
                edges.append(frozenset(rng.sample(range(12), rng.choice([0, 1, 2, 2, 3, 3, 4, 5]))))
        yield 12, edges, range(5)
    for _ in range(250):
        yield 96, [frozenset(rng.sample(range(96), 9)) for _ in range(8)], (2,)
    for _ in range(250):
        yield 24, [frozenset(rng.sample(range(24), 4)) for _ in range(8)], (3,)


def test_hit_by_at_most_seeded_sweep_where_packing_fires():
    seen = set()
    for n, edges, ks in _sweep_instances():
        h = Hypergraph(n=n, edges=tuple(edges))
        bits = {}
        masks = [_mask(e, bits) for e in edges]
        for k in ks:
            want = oracle_has_small_transversal(h, k)
            assert _hit_by_at_most(masks, k) == want, (edges, k)
            assert has_small_transversal(h, k) == want
            if k >= 2:
                seen.add((_packs(edges, k + 1), want))
    # at k >= 2: "no" with and without a (k + 1)-packing, and "yes"; from
    # k = 3 the packing pass refutes the former, at k = 2 an empty side B does
    assert {(True, False), (False, False), (False, True)} <= seen


@pytest.mark.parametrize("k", range(5))
def test_hit_by_at_most_packing_pins(k):
    # k + 1 pairwise-disjoint edges need k + 1 picks
    disjoint = [frozenset({2 * i, 2 * i + 1}) for i in range(k + 1)]
    bits = {}
    assert not _hit_by_at_most([_mask(e, bits) for e in disjoint], k)
    # exactly k of them, with every other edge met by the picks 0, 2, ...,
    # has a transversal of size k
    crossing = [frozenset({2 * i, 2 * i + 3}) for i in range(k - 1)]
    if k:
        crossing.append(frozenset({0, 7, 9}))
    edges = disjoint[:k] + crossing
    bits = {}
    assert _hit_by_at_most([_mask(e, bits) for e in edges], k)
    assert oracle_has_small_transversal(Hypergraph(n=2 * k + 10, edges=tuple(edges)), k)
    # an empty edge is met by nothing, at every k
    assert not _hit_by_at_most([_mask(e, {}) for e in [frozenset(), frozenset({0})]], k)
    assert not _hit_by_at_most([0], k)


def _k2_exits(masks, want):
    """The exits of the kernel's k = 2 rule on masks, seeded by masks[0].

    B is the AND of the masks missing the seed and A the seed ANDed with
    the masks missing B; with both nonempty the branches on A's bits
    decide, so want, the oracle's answer, says how they end.
    """
    seed = masks[0]
    missing = [m for m in masks if not m & seed]
    exits = set() if missing else {"no mask misses the seed"}
    side_b = functools.reduce(operator.and_, missing, -1)
    if not side_b:
        return exits | {"B empty"}
    side_a = functools.reduce(operator.and_, [m for m in masks if not m & side_b], seed)
    if not side_a:
        return exits | {"A empty"}
    return exits | {"a branch finds a pair" if want else "every branch fails"}


def _forced_side_instances():
    # small mixed instances on ids 0..7 (empty and repeated edges included),
    # lll_dense's neighbor sublists (8 of 9 colors from 96), and 8 edges of
    # 4 from 24, whose k = 3 level recurses into k = 2 on the edges a pick misses
    rng = random.Random(3201)
    for _ in range(1500):
        edges = []
        for _ in range(rng.randint(1, 8)):
            if edges and rng.random() < 0.1:
                edges.append(rng.choice(edges))
            else:
                edges.append(frozenset(rng.sample(range(8), rng.choice([0, 1, 2, 2, 3, 3, 4]))))
        yield 8, edges, (2, 3)
    for _ in range(150):
        yield 96, [frozenset(rng.sample(range(96), 9)) for _ in range(8)], (2,)
    for _ in range(150):
        yield 24, [frozenset(rng.sample(range(24), 4)) for _ in range(8)], (2, 3)


def test_hit_by_at_most_forced_sides_sweep():
    seen = set()
    for n, edges, ks in _forced_side_instances():
        h = Hypergraph(n=n, edges=tuple(edges))
        bits = {}
        masks = [_mask(e, bits) for e in edges]
        for k in ks:
            want = oracle_has_small_transversal(h, k)
            assert _hit_by_at_most(masks, k) == want, (edges, k)
            assert has_small_transversal(h, k) == want
            if k == 2:
                seen |= _k2_exits(masks, want)
    assert seen == {
        "B empty",
        "A empty",
        "a branch finds a pair",
        "every branch fails",
        "no mask misses the seed",
    }


def test_hit_by_at_most_ignores_mask_order():
    # the seed is masks[0], so each order seeds the search differently;
    # the largest mask first, the smallest first and shuffles answer alike
    rng = random.Random(3202)
    for _ in range(400):
        n = rng.randint(2, 9)
        edges = [frozenset(rng.sample(range(n), rng.randint(0, n))) for _ in range(rng.randint(1, 7))]
        edges += edges[:1]
        h = Hypergraph(n=n, edges=tuple(edges))
        bits = {}
        masks = [_mask(e, bits) for e in edges]
        orders = [sorted(masks, key=int.bit_count), sorted(masks, key=int.bit_count, reverse=True)]
        for _ in range(3):
            orders.append(rng.sample(masks, len(masks)))
        for k in range(5):
            want = oracle_has_small_transversal(h, k)
            for order in orders:
                assert _hit_by_at_most(order, k) == want, (order, k)
