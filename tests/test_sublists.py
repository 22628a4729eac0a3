from __future__ import annotations

import hashlib
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from dyncolor import (
    bad_event_bound,
    bad_event_holds,
    build_graph,
    default_max_iters,
    dynamic_coloring_via_sublists,
    fixed_set_hits_all_bound,
    generate,
    is_proper,
    is_r_dynamic,
    neighborhood_color_hypergraph,
    random_list_assignment,
    resample_until_clear,
    sample_sublists,
    sublist_condition_holds,
    sublist_condition_lhs,
)
from dyncolor import coloring as coloring_mod, sublists as sublists_mod
from dyncolor.coloring import _Sorted, _normalize_lists
from dyncolor.sublists import _list_sizes, _sorted_sampler

from .helpers import bipartite_regular, oracle_resample_until_clear, random_lists


# --- sampling ---------------------------------------------------------------

def test_sample_sublists_deterministic_sorted_subsets():
    base = [[5, 3, 1], [2, 4, 6], [7, 8, 9]]
    a = sample_sublists(base, 2, seed=11)
    b = sample_sublists(base, 2, seed=11)
    assert a.sublists == b.sublists
    for v, sub in enumerate(a.sublists):
        assert list(sub) == sorted(sub)
        assert set(sub) <= set(base[v])
        assert len(sub) == 2
    assert a.draws == 3
    c = sample_sublists(base, 2, seed=12)
    assert a.sublists != c.sublists  # frozen seeds chosen to differ


def test_sample_sublists_slack_bookkeeping():
    st6 = sample_sublists([[1, 2, 3, 4, 5, 6]] * 2, 5, seed=0, r=2)
    assert st6.slack == 1  # 6 - 5 - 2 + 2
    with pytest.raises(ValueError):
        sample_sublists([[1, 2, 3]] * 2, 3, seed=0, r=2)  # slack 0 below floor
    with pytest.raises(ValueError):
        sample_sublists([[1, 2, 3]] * 2, 2, seed=0, r=1)
    with pytest.raises(ValueError):
        sample_sublists([[1, 2, 3], [1, 2, 3, 4]], 2, seed=0, r=2)  # underivable
    assert sample_sublists([[1, 2, 3], [1, 2, 3, 4]], 2, seed=0, r=2, slack=1).slack == 1
    with pytest.raises(ValueError):
        sample_sublists([[1, 2, 3]] * 2, 2, seed=0, slack=1)  # slack without r
    with pytest.raises(ValueError):
        sample_sublists([[1, 2]], 3, seed=0)  # sublist bigger than list
    with pytest.raises(ValueError):
        sample_sublists([[1, 2]], 0, seed=0)


def test_list_sizes_derive_what_is_missing():
    # base = sublist + slack + r - 2, the slack r - 1 unless it is derived
    nine = [tuple(range(1, 10))] * 4
    assert _list_sizes(3, None, lists=nine) == (6, 2, 9)  # with no degree, the room the lists leave
    assert _list_sizes(3, 4) == (4, 2, 7)  # experiment's base size
    assert _list_sizes(3, 4, slack=5) == (4, 5, 10)
    assert _list_sizes(3, 4, lists=nine) == (4, 4, 9)  # the slack from the lists
    assert _list_sizes(2, 2, slack=1, lists=[(1, 2, 3), (1, 2, 3, 4)]) == (2, 1, 3)  # not read
    assert _list_sizes(2, None, lists=[]) == (None, 1, None)  # no list to size
    with pytest.raises(ValueError, match="^sublist size must be >= 1, got 0$"):
        _list_sizes(2, 0, lists=[])
    with pytest.raises(ValueError, match="^r must be >= 2, got 1$"):
        _list_sizes(1, 4)
    with pytest.raises(ValueError, match="^slack 1 below the floor r-1 = 2$"):
        _list_sizes(3, 7, lists=nine)


def test_sample_sublists_uniform_single_draws():
    counts = {1: 0, 2: 0}
    for seed in range(10_000):
        state = sample_sublists([[1, 2]], 1, seed)
        counts[state.sublists[0][0]] += 1
    assert counts == {1: 5022, 2: 4978}  # frozen; a fair split within 1%


class _CoarseRandom(random.Random):
    # overriding random() alone makes Random.sample draw through random()
    # instead of getrandbits, so the inlined loop must not serve it
    def random(self):
        return super().random()


def _sample_set_branch(n, k):
    # Random.sample's own rule for tracking selections in a set, not a pool
    return n > 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def _assert_same_as_sample(rng_type, seed, population, k):
    ours, theirs = rng_type(seed), rng_type(seed)
    assert _sorted_sampler(ours, k)(population) == tuple(sorted(theirs.sample(population, k)))
    assert ours.getstate() == theirs.getstate()


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=300),
    st.data(),
    st.sampled_from(["range", "tuple"]),
    st.sampled_from([random.Random, _CoarseRandom]),
)
def test_sorted_sample_draws_as_random_sample(seed, size, data, kind, rng_type):
    k = data.draw(st.one_of(st.just(0), st.just(size), st.integers(min_value=0, max_value=size)))
    if kind == "range":
        population = range(7, 7 + size)
    else:  # repeats allowed, as in Random.sample
        population = tuple(data.draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size)))
    _assert_same_as_sample(rng_type, seed, population, k)


@pytest.mark.parametrize(
    "size, k, set_branch",
    [(0, 0, False), (21, 21, False), (22, 5, True), (22, 6, False), (85, 6, False), (86, 6, True),
     (277, 50, False), (278, 50, True), (300, 3, True), (300, 200, False), (300, 300, False)],
)
def test_sorted_sample_both_branches_of_sample(size, k, set_branch):
    assert _sample_set_branch(size, k) == set_branch
    for seed in range(5):
        _assert_same_as_sample(random.Random, seed, range(1, size + 1), k)
        _assert_same_as_sample(random.Random, seed, tuple(range(size, 0, -1)), k)
        _assert_same_as_sample(_CoarseRandom, seed, range(1, size + 1), k)


@pytest.mark.parametrize("rng_type", [random.Random, _CoarseRandom])
def test_sorted_sampler_draws_as_random_sample_across_sizes(rng_type):
    # one sampler keeps the tries of each population size; at k = 6 sizes up
    # to 85 take the pool branch of Random.sample and 86 its set branch
    assert not _sample_set_branch(85, 6) and _sample_set_branch(86, 6)
    sizes = [85, 86, 6, 85, 5, 200, 86, 22, 0, 7, 85]
    for seed in range(5):
        ours, theirs = rng_type(seed), rng_type(seed)
        draw = _sorted_sampler(ours, 6)
        for i, size in enumerate(sizes):
            population = range(1, size + 1) if i % 2 else tuple(range(3 * size, 0, -3))
            if size < 6:
                with pytest.raises(ValueError) as got:
                    draw(population)
                with pytest.raises(ValueError) as want:
                    theirs.sample(population, 6)
                assert str(got.value) == str(want.value)
            else:
                assert draw(population) == tuple(sorted(theirs.sample(population, 6)))
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("k", [-1, 6, 40])
def test_sorted_sample_rejects_k_as_sample_does(k):
    with pytest.raises(ValueError) as ours:
        _sorted_sampler(random.Random(0), k)(range(5))
    with pytest.raises(ValueError) as theirs:
        random.Random(0).sample(range(5), k)
    assert str(ours.value) == str(theirs.value)


# --- event machinery --------------------------------------------------------

def test_neighborhood_color_hypergraph():
    g = generate("cycle", n=4)
    sub = [(9, 9), (1, 2), (0, 0), (1, 3)]
    h = neighborhood_color_hypergraph(g, sub, 0)
    assert h.edges == (frozenset({1, 2}), frozenset({1, 3}))
    assert h.n == 4  # colors 0..3
    with pytest.raises(ValueError):
        neighborhood_color_hypergraph(build_graph(2, []), [(1,), (2,)], 0)


@pytest.mark.parametrize("v", [-1, 4])
def test_event_machinery_rejects_vertices_out_of_range(v):
    # a negative v would otherwise answer for vertex n + v, and v >= n would
    # raise a bare IndexError
    g = generate("cycle", n=4)
    state = sample_sublists([[1, 2, 3]] * 4, 2, seed=0, r=2)
    message = f"^vertex {v} out of range 0..3$"
    with pytest.raises(ValueError, match=message):
        bad_event_holds(g, state, v)
    with pytest.raises(ValueError, match=message):
        neighborhood_color_hypergraph(g, state.sublists, v)


def test_neighborhood_color_hypergraph_checks_the_assignment():
    g = generate("cycle", n=4)
    with pytest.raises(ValueError, match="^list assignment has 3 entries for 4 vertices$"):
        neighborhood_color_hypergraph(g, [(1, 2)] * 3, 0)


@pytest.mark.parametrize(
    "lists, message",
    [
        ([(-3, -1)] * 4, "list for vertex 1 has a bad color -3"),
        ([("a", "b")] * 4, "list for vertex 1 has a bad color 'a'"),
        ([(1, 2), (True, 2), (1, 2), (1, 2)], "list for vertex 1 has a bad color True"),
    ],
    ids=["negative", "string", "bool"],
)
def test_neighborhood_color_hypergraph_rejects_non_vertex_colors(lists, message):
    # the colors become vertex ids 0..n-1, so they follow parse_lists' rule
    g = generate("cycle", n=4)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        neighborhood_color_hypergraph(g, lists, 0)


def test_neighborhood_color_hypergraph_empty_lists():
    # empty edges take no part in the universe; with no nonempty edge it is
    # empty too
    g = generate("cycle", n=4)
    h = neighborhood_color_hypergraph(g, [(), (), (5,), ()], 1)
    assert h.edges == (frozenset(), frozenset({5}))
    assert h.n == 6
    h = neighborhood_color_hypergraph(g, [()] * 4, 0)
    assert h.edges == (frozenset(), frozenset())
    assert h.n == 0


def test_bad_event_holds_hand_cases():
    g = generate("cycle", n=4)
    base = [[1, 2, 3]] * 4
    state = sample_sublists(base, 2, seed=0, r=2)
    state.sublists = [(1, 2), (1, 2), (1, 2), (3, 9)]
    # vertex 0 sees sublists (1,2) and (3,9): no single color hits both
    assert not bad_event_holds(g, state, 0)
    # vertex 1 sees (1,2) twice: color 1 hits both
    assert bad_event_holds(g, state, 1)


def test_bad_event_requires_r_and_degree():
    g = build_graph(3, [(0, 1), (1, 2)])
    state = sample_sublists([[1, 2, 3]] * 3, 1, seed=0)
    with pytest.raises(ValueError):
        bad_event_holds(g, state, 1)
    state = sample_sublists([[1, 2, 3, 4]] * 3, 1, seed=0, r=2)
    with pytest.raises(ValueError):
        bad_event_holds(g, state, 0)  # degree 1 < r


def test_default_max_iters():
    assert default_max_iters(generate("complete", n=5), 2) == math.ceil(50 * math.log(4))
    assert default_max_iters(generate("complete", n=5), 2) == 70
    assert default_max_iters(generate("cycle", n=4), 2) == 28
    # max degree below 2 falls back to ln 2
    assert default_max_iters(build_graph(2, [(0, 1)]), 2) == math.ceil(20 * math.log(2))


def test_empty_graph_resamples_under_the_default_cap():
    # the default cap reads the maximum degree without degree_stats, which
    # rejects the empty graph; n = 0 gives a cap of 0
    empty = build_graph(0, [])
    assert default_max_iters(empty, 2) == 0
    for max_iters in (None, 3):
        state, log = resample_until_clear(empty, sample_sublists([], 1, 0, r=2), max_iters)
        assert (log.status, log.iterations, state.sublists) == ("clear", 0, [])


def test_drawn_sublists_are_sorted_lists():
    # Random.sample draws distinct items of a normalized list in both its
    # branches, so the draws are _Sorted and later normalizations pass them
    # as the same object; a subclass of Random keeps plain tuples
    g = generate("complete", n=5)
    state = sample_sublists([list(range(6, 0, -1))] * 5, 5, seed=3, r=2)
    first = list(state.sublists)
    assert {type(t) for t in state.base + first} == {_Sorted}
    assert _normalize_lists(5, first)[0] is first[0]
    state, log = resample_until_clear(g, state, max_iters=3)
    redrawn = [t for t, old in zip(state.sublists, first) if t is not old]
    assert log.iterations == 3 and len(redrawn) == 4 and {type(t) for t in redrawn} == {_Sorted}
    assert type(_sorted_sampler(random.Random(0), 3)(range(1, 10))) is _Sorted
    assert type(_sorted_sampler(random.Random(0), 3)(range(300))) is _Sorted  # set branch
    assert type(_sorted_sampler(_CoarseRandom(0), 3)(range(1, 10))) is tuple


# --- resampling -------------------------------------------------------------

def test_resample_clear_immediately():
    g = generate("cycle", n=4)
    base = [[1, 2, 3, 4], [1, 2, 3, 4], [5, 6, 7, 8], [5, 6, 7, 8]]
    state = sample_sublists(base, 3, seed=1, r=2)
    # each vertex's two neighbors are an adjacent pair and an opposite one,
    # drawn from disjoint palettes: no single color hits both, no bad events
    state, log = resample_until_clear(g, state)
    assert log.status == "clear"
    assert log.iterations == 0
    assert log.violations_per_sweep == ()


def test_resample_cap_reached_k5():
    # four 5-subsets of a 6-color universe always share two colors, so the
    # bad event at every vertex of K5 holds permanently and the cap bites
    g = generate("complete", n=5)
    base = [list(range(1, 7))] * 5
    state = sample_sublists(base, 5, seed=3, r=2)
    state, log = resample_until_clear(g, state)
    assert log.status == "cap_reached"
    assert log.iterations == 70  # frozen: equals default_max_iters
    assert len(log.violations_per_sweep) == 70
    assert all(sweep == (0, 1, 2, 3, 4) for sweep in log.violations_per_sweep)
    assert state.draws == 5 + 70 * 4  # initial draws plus one per neighbor per sweep


def test_resample_log_json():
    g = generate("complete", n=5)
    state = sample_sublists([list(range(1, 7))] * 5, 5, seed=3, r=2)
    _, log = resample_until_clear(g, state, max_iters=2)
    d = log.to_json_dict()
    assert d["status"] == "cap_reached"
    assert d["iterations"] == 2
    assert d["violations_per_sweep"] == [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]


def test_resample_requires_r():
    g = generate("cycle", n=4)
    state = sample_sublists([[1, 2, 3]] * 4, 2, seed=0)
    with pytest.raises(ValueError):
        resample_until_clear(g, state)


@pytest.mark.parametrize("count", [4, 6])
def test_bad_event_checks_sublist_count(count):
    # sample_sublists sizes the state by its lists and never sees the graph
    g = generate("cycle", n=5)
    state = sample_sublists([[1, 2, 3, 4]] * count, 2, seed=0, r=2)
    message = f"^list assignment has {count} entries for 5 vertices$"
    with pytest.raises(ValueError, match=message):
        resample_until_clear(g, state)
    with pytest.raises(ValueError, match=message):
        bad_event_holds(g, state, 0)
    assert state.draws == count


def test_resample_benchmark_regular_bipartite():
    # 8-regular bipartite graphs on 32 vertices, 7-color lists, 4-color
    # sublists: all 50 frozen instances clear, none needing more than one
    # resample
    cleared = 0
    worst = 0
    for i in range(50):
        g = bipartite_regular(16, 8, seed=1000 + i)
        rng = random.Random(2000 + i)
        lists = random_lists(g.n, 7, range(1, 15), rng)
        state = sample_sublists(lists, 4, i, r=2)
        state, log = resample_until_clear(g, state, max_iters=1000)
        cleared += log.status == "clear"
        worst = max(worst, log.iterations)
    assert cleared == 50
    assert worst == 1


# --- local rechecks against the full-sweep resampler ------------------------

def _oracle_pair(r, n, p, sublist_size, extra, seed):
    """One gnp instance sampled twice with the same seed, slack r-1."""
    rng = random.Random(seed)
    g = generate("gnp", n=n, p=p, seed=seed)
    size = sublist_size + 2 * r - 3
    lists = [rng.sample(range(size + extra), size) for _ in range(n)]
    return g, [sample_sublists(lists, sublist_size, seed, r=r) for _ in range(2)]


@pytest.mark.parametrize(
    "r, n, p, sublist_size, extra",
    [(2, 24, 0.2, 1, 2), (3, 18, 0.35, 2, 3), (4, 14, 0.5, 2, 3)],
)
def test_resample_matches_full_sweep_oracle(r, n, p, sublist_size, extra):
    sweeps = ineligible = 0
    for seed in range(12):
        g, (fast, slow) = _oracle_pair(r, n, p, sublist_size, extra, seed)
        fast, log = resample_until_clear(g, fast, max_iters=40)
        slow, want = oracle_resample_until_clear(g, slow, max_iters=40)
        assert log == want
        assert fast.sublists == slow.sublists
        assert fast.draws == slow.draws
        sweeps += log.iterations
        ineligible += sum(g.degree(v) < r for v in range(n))
    assert sweeps > 0 and ineligible > 0  # the instances resample and skip vertices


def test_resample_matches_full_sweep_oracle_at_the_cap():
    # r = 2 runs the inlined one-color check, r = 3 the hitting-set kernel
    for params in [(2, 24, 0.2, 1, 2), (3, 18, 0.35, 2, 3)]:
        statuses = set()
        for seed in range(20):
            for max_iters in (0, 1, 2, 5):
                g, (fast, slow) = _oracle_pair(*params, seed)
                fast, log = resample_until_clear(g, fast, max_iters=max_iters)
                slow, want = oracle_resample_until_clear(g, slow, max_iters=max_iters)
                assert log == want
                assert fast.sublists == slow.sublists
                assert fast.draws == slow.draws
                statuses.add(log.status)
        assert statuses == {"clear", "cap_reached"}


# --- the pipeline -----------------------------------------------------------

def test_pipeline_frozen_ok_cases():
    g = generate("cycle", n=4)
    lists = [[1, 5, 6], [1, 2, 6], [1, 5, 7], [2, 6, 9]]
    res = dynamic_coloring_via_sublists(g, lists, 2, 2, seed=0, max_iters=300)
    assert res.status == "ok"
    assert res.coloring == [5, 1, 7, 6]
    assert res.log.iterations == 1
    lists = [[1, 4, 9], [3, 4, 7], [3, 5, 8], [3, 4, 8]]
    res = dynamic_coloring_via_sublists(g, lists, 2, 2, seed=3, max_iters=300)
    assert res.status == "ok"
    assert res.coloring == [1, 4, 3, 8]
    assert res.log.iterations == 0


def test_pipeline_frozen_cap_reached():
    g = generate("complete", n=5)
    res = dynamic_coloring_via_sublists(g, [list(range(1, 7))] * 5, 5, 2, seed=3)
    assert res.status == "cap_reached"
    assert res.coloring is None
    assert res.log.iterations == 70


def test_pipeline_frozen_list_coloring_failed():
    # cleared sublists on a complete bipartite graph can still dodge every
    # proper choice when the sublist size sits below the choosability
    g = generate("complete_bipartite", a=2, b=4)
    lists = [[2, 3, 5], [1, 4, 5], [2, 4, 5], [1, 4, 5], [1, 2, 3], [1, 2, 5]]
    res = dynamic_coloring_via_sublists(g, lists, 2, 2, seed=72, max_iters=60)
    assert res.status == "list_coloring_failed"
    assert res.coloring is None
    assert res.log.status == "clear"
    assert res.log.iterations == 1


def test_pipeline_backtracking_coloring_is_pinned():
    # trial 1 of `experiment --n 150 --p 0.08 --r 2 --trials 3 --mode lll
    # --sublist-size 5 --slack 3 --seed 47`: first-fit dead-ends on the
    # cleared sublists, and the search without forward checking took about
    # 13 s to reach this coloring
    master = random.Random(47)
    master.randrange(2**32), master.randrange(2**32)  # trial 0
    gs, ls = master.randrange(2**32), master.randrange(2**32)
    g = generate("gnp", seed=gs, n=150, p=0.08)
    rng = random.Random(ls)
    lists = random_list_assignment(150, 8, 16, rng)
    res = dynamic_coloring_via_sublists(g, lists, 5, 2, seed=rng.randrange(2**32))
    assert res.status == "ok"
    digest = hashlib.sha256(json.dumps(res.coloring).encode()).hexdigest()
    assert digest == "f637c7b5f3dfe919a0de153725accbeb2d6318d713ca9b45c48488b65e461b65"


def test_pipeline_validation():
    g = generate("cycle", n=4)
    with pytest.raises(ValueError):
        dynamic_coloring_via_sublists(g, [[1, 2, 3]] * 4, 2, 1, seed=0)
    with pytest.raises(ValueError):
        dynamic_coloring_via_sublists(g, [[1, 2, 3]] * 3, 2, 2, seed=0)
    with pytest.raises(ValueError):
        dynamic_coloring_via_sublists(g, [[1, 2, 3], [1, 2, 3], [1, 2, 3], [1, 2, 3, 4]], 2, 2, seed=0)
    with pytest.raises(ValueError):
        dynamic_coloring_via_sublists(g, [[1, 2, 3]] * 4, 3, 2, seed=0)  # slack 0
    # None sizes no list, so only the empty graph may pass it
    with pytest.raises(ValueError, match="^sublist size must be >= 1, got None$"):
        dynamic_coloring_via_sublists(g, [[1, 2, 3, 4, 5]] * 4, None, 2, seed=0)
    path = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        dynamic_coloring_via_sublists(path, [[1, 2, 3]] * 3, 2, 2, seed=0)  # degree 1 < r


def test_pipeline_empty_graph():
    res = dynamic_coloring_via_sublists(build_graph(0, []), [], 2, 2, seed=0)
    assert res.status == "ok"
    assert res.coloring == []


def test_pipeline_empty_graph_checks_the_list_count():
    with pytest.raises(ValueError, match="^list assignment has 1 entries for 0 vertices$"):
        dynamic_coloring_via_sublists(build_graph(0, []), [[1, 2]], 1, 2, seed=0)


def test_pipeline_empty_graph_checks_sublist_size():
    # the same check as on a nonempty graph; None (no list to size) passes
    empty = build_graph(0, [])
    for size in (0, -1):
        with pytest.raises(ValueError, match=f"^sublist size must be >= 1, got {size}$"):
            dynamic_coloring_via_sublists(empty, [], size, 2, seed=0)
    assert dynamic_coloring_via_sublists(empty, [], None, 2, seed=0).status == "ok"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_pipeline_ok_colorings_are_valid(seed):
    rng = random.Random(seed)
    g = generate("cycle", n=rng.randint(4, 8))
    lists = random_lists(g.n, 3, range(1, 10), rng)
    res = dynamic_coloring_via_sublists(g, lists, 2, 2, seed=seed, max_iters=200)
    assert res.status in {"ok", "cap_reached", "list_coloring_failed"}
    if res.status == "ok":
        assert is_proper(g, res.coloring)
        assert is_r_dynamic(g, res.coloring, 2)
        assert all(res.coloring[v] in lists[v] for v in range(g.n))


# C_4 with pairwise disjoint lists: no color meets two neighbor sublists, so
# every draw is clear at once and the proper list coloring step runs
C4_DISJOINT = [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)]


def test_pipeline_normalizes_only_the_base_lists(monkeypatch):
    # the sublists are drawn sorted and distinct, so neither module's binding
    # of _normalize_lists sees them
    calls = []
    normalize = coloring_mod._normalize_lists

    def spy(n, lists, *args, **kwargs):
        calls.append(lists)
        return normalize(n, lists, *args, **kwargs)

    monkeypatch.setattr(coloring_mod, "_normalize_lists", spy)
    monkeypatch.setattr(sublists_mod, "_normalize_lists", spy)
    res = dynamic_coloring_via_sublists(generate("cycle", n=4), C4_DISJOINT, 2, 2, seed=0)
    assert res.status == "ok"
    assert calls == [C4_DISJOINT]


def test_pipeline_raises_on_a_proper_coloring_that_is_not_dynamic(monkeypatch):
    # [1, 2, 1, 2] is proper on C_4, but each vertex sees one color twice
    g = generate("cycle", n=4)
    assert is_proper(g, [1, 2, 1, 2]) and not is_r_dynamic(g, [1, 2, 1, 2], 2)
    monkeypatch.setattr(sublists_mod, "_proper_list_coloring", lambda adj, lists: [1, 2, 1, 2])
    with pytest.raises(AssertionError, match="non-dynamic proper coloring"):
        dynamic_coloring_via_sublists(g, C4_DISJOINT, 2, 2, seed=0)


# strictly increasing relabellings: sorted lists keep their order, so every
# draw picks the same positions
RELABELS = [lambda c: 10**12 + 3 * c, lambda c: c - 50, lambda c: f"{c:04d}"]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=4),
    st.sampled_from(RELABELS),
)
def test_pipeline_ignores_color_values(seed, r, relabel):
    # the bad event gives each color a bit of its own, never one derived from
    # the color's value, so the log is the same and the coloring relabelled
    rng = random.Random(seed)
    g = generate("random_regular", n=rng.choice([10, 12, 14]), d=rng.randint(r, r + 2), seed=seed)
    sublist_size = rng.randint(2, 4)
    size = sublist_size + 2 * r - 3
    lists = random_lists(g.n, size, range(1, rng.randint(size + 1, 3 * size)), rng)
    want = dynamic_coloring_via_sublists(g, lists, sublist_size, r, seed, max_iters=30)
    relabelled = [[relabel(c) for c in t] for t in lists]
    got = dynamic_coloring_via_sublists(g, relabelled, sublist_size, r, seed, max_iters=30)
    assert got.log == want.log
    assert got.status == want.status
    if want.coloring is None:
        assert got.coloring is None
    else:
        assert got.coloring == [relabel(c) for c in want.coloring]


# --- analytic helpers -------------------------------------------------------

def test_sublist_condition_lhs_frozen():
    # r=2, slack=1, sublist 1: (3 ln D + 2) * (l+s)/s with l=s=1 gives
    # (3 ln 24 + ln 2 + 1) * 2
    want = (3 * math.log(24) + math.log(2) + 1) * 2
    assert sublist_condition_lhs(24, 2, 1, 1) == pytest.approx(want)
    assert sublist_condition_holds(24, 24, 2, 1, 1)
    assert not sublist_condition_holds(10, 10, 2, 1, 1)


def test_sublist_condition_validation():
    with pytest.raises(ValueError):
        sublist_condition_lhs(10, 1, 1, 1)
    with pytest.raises(ValueError):
        sublist_condition_lhs(10, 3, 1, 1)  # slack below r-1
    with pytest.raises(ValueError):
        sublist_condition_holds(10, 0, 2, 1, 1)


def test_probability_diagnostics():
    assert fixed_set_hits_all_bound(1, 1, 2, 10) == pytest.approx((1 - 0.5) ** 10)
    want = 2 ** 1 * math.exp(-10 * 0.5)
    assert bad_event_bound(1, 1, 2, 10) == pytest.approx(want)
    # more colors to dodge makes the event likelier, never less
    assert fixed_set_hits_all_bound(4, 1, 2, 10) > fixed_set_hits_all_bound(1, 1, 2, 10)
