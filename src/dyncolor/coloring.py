"""Exact coloring predicates and desk-scale solvers.

Every solver here runs one search engine, `_search`, on the constraints that
`_constraints` builds for a graph in proper or dynamic mode or a hypergraph
in strong mode.  That builder is the one place a mode becomes constraints,
and its docstring states the rule.
Vertices go by the number of edges containing them, descending, ties by id
(on graphs: by degree); colors ascend through each vertex's list, or through
1..k in first-use order.  The exact chromatic numbers are the least k at
which the first-use search succeeds (`_least_k`).

Solvers are exhaustive and meant for small instances; every public entry
point with exponential behavior takes a size guard as a keyword parameter
(the defaults are the supported scale, not hard limits).

Choosability (`is_k_choosable`) lives in the `choosability` module: one
forall-lists / exists-coloring search that fills lists in
maximum-cardinality-search order and carries the set of feasible colorings
projected onto the boundary, memoized up to color renaming.
"""

from __future__ import annotations

from .graphs import Graph, Hypergraph


def _check_coloring(n, coloring):
    if len(coloring) != n:
        raise ValueError(f"coloring has {len(coloring)} entries for {n} vertices")


def _check_r(r, floor):
    if r < floor:
        raise ValueError(f"r must be >= {floor}, got {r}")


def _check_cap(n, max_n):
    if n > max_n:
        raise ValueError(f"n={n} exceeds cap {max_n}; pass max_n to override")


def _normalize_lists(n, lists, floor=1):
    """Each list as a sorted tuple of distinct colors, at least floor of them."""
    if len(lists) != n:
        raise ValueError(f"list assignment has {len(lists)} entries for {n} vertices")
    out = []
    for v, colors in enumerate(lists):
        t = tuple(sorted(set(colors)))
        if len(t) < floor:
            raise ValueError(f"list at vertex {v} has {len(t)} colors, needs >= {floor}")
        out.append(t)
    return out


def is_proper(g: Graph, coloring) -> bool:
    """True when no edge joins two equal colors."""
    _check_coloring(g.n, coloring)
    return all(coloring[u] != coloring[v] for u, v in g.edges)


def _meets(edges, coloring, r):
    """True when every edge e carries min(r, |e|) distinct colors."""
    return all(len({coloring[v] for v in e}) >= min(r, len(e)) for e in edges)


def is_r_dynamic(g: Graph, coloring, r) -> bool:
    """Proper, and every vertex sees min(r, d(v)) distinct neighbor colors."""
    _check_r(r, 1)
    return is_proper(g, coloring) and _meets(g.adj, coloring, r)


def is_r_strong(h: Hypergraph, coloring, r) -> bool:
    """Every edge carries min(r, |e|) distinct colors; properness not required."""
    _check_r(r, 1)
    _check_coloring(h.n, coloring)
    return _meets(h.edges, coloring, r)


def _constraints(x, mode, r):
    """The search's (edges, need, avoid) for x in mode, after the mode and r checks.

    A graph takes mode "proper" or "dynamic", a hypergraph only "strong".
    On a graph the edges are the neighborhoods N(u), with need min(r, d(u))
    in dynamic mode and 0 in proper mode, and avoid[v] = v: a color on N(v)
    is taken, which is properness.  So an r-dynamic coloring is a proper one
    that is r-strong on the neighborhood hypergraph.  Strong mode takes the
    hyperedges with need min(r, |e|) and no avoid rule.
    """
    graph = isinstance(x, Graph)
    if mode not in (("proper", "dynamic") if graph else ("strong",)):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "proper":
        _check_r(r, 1)
    edges = x.adj if graph else x.edges
    need = [0] * len(edges) if mode == "proper" else [min(r, len(e)) for e in edges]
    return edges, need, (range(x.n) if graph else None)


def _search(n, edges, need, avoid, lists=None, k=None):
    """The first valid coloring in search order, or None.

    Valid: every edge j holds need[j] distinct colors, and when avoid is
    given no vertex v shares a color with a member of edge avoid[v].
    Exactly one of lists (colors of v ascending from lists[v]) and k (colors
    1..k in first-use order: those used so far, then one fresh) drives it;
    first-use order finds a coloring whenever 1..k admits one, since
    validity does not depend on the names of the colors.
    """
    if n == 0:
        return []
    member = [[] for _ in range(n)]
    for j, e in enumerate(edges):
        for v in e:
            member[v].append(j)
    order = sorted(range(n), key=lambda v: (-len(member[v]), v))
    spare = [len(e) - t for e, t in zip(edges, need)]  # repeats each edge can afford
    repeats = [0] * len(edges)
    mult = [{} for _ in edges]  # color -> count on the colored members of each edge
    taken = [()] * n if avoid is None else [mult[j] for j in avoid]
    color = [None] * n
    top = [0] * n  # first-use order: the largest color on order[:depth]
    # An explicit stack of color iterators, one per depth, so that the search
    # depth is not bounded by the interpreter's recursion limit.  A vertex
    # still colored at the loop head was extended (or pruned) with that
    # color; it is taken off before the next one is tried.
    stack = [iter(lists[order[0]] if k is None else (1,))]
    while stack:
        depth = len(stack) - 1
        v = order[depth]
        c = color[v]
        if c is not None:
            color[v] = None
            for j in member[v]:
                mj = mult[j]
                if mj[c] == 1:
                    del mj[c]
                else:
                    mj[c] -= 1
                    repeats[j] -= 1
        avoided = taken[v]
        for c in stack[-1]:
            if c not in avoided:
                break
        else:
            stack.pop()
            continue
        color[v] = c
        # A fresh color keeps an edge's distinct colors plus uncolored
        # members unchanged, so only an edge that now holds c twice can fall
        # below its need.
        pruned = False
        for j in member[v]:
            mj = mult[j]
            if c in mj:
                mj[c] += 1
                repeats[j] += 1
                if repeats[j] > spare[j]:
                    pruned = True
            else:
                mj[c] = 1
        if pruned:
            continue
        if depth + 1 == n:
            return list(color)
        if k is None:
            stack.append(iter(lists[order[depth + 1]]))
        else:
            used = top[depth + 1] = max(top[depth], c)
            stack.append(iter(range(1, min(used + 1, k) + 1)))
    return None


def _least_k(x, mode, r, max_n):
    """The least k at which colors 1..k admit a valid coloring, and the first one.

    Starts at the trivial lower bound: the largest need, which alone takes
    that many colors, plus one on a graph with an edge (a vertex of maximum
    degree differs from its neighbors, which carry min(r, maxdeg) colors in
    dynamic mode).  Terminates at k = n at the latest: the all-distinct
    coloring is valid in every mode.  The coloring is the first from lists
    1..k as well: that one is the lexicographically least valid coloring,
    which is already in first-use form, so the first-use search reaches it
    first.
    """
    edges, need, avoid = _constraints(x, mode, r)
    _check_cap(x.n, max_n)
    if x.n == 0:
        return 0, []
    low = max([1, *need]) + (avoid is not None and x.m > 0)
    for k in range(low, x.n + 1):
        coloring = _search(x.n, edges, need, avoid, k=k)
        if coloring is not None:
            return k, coloring
    raise AssertionError("unreachable: n colors always suffice")


def solve_list_coloring(x: Graph | Hypergraph, lists, mode="proper", r=0):
    """Find a coloring with c(v) in lists[v] meeting the mode, or None.

    x is a Graph in mode "proper" or "dynamic", a Hypergraph in "strong".
    Exhaustive search: vertices by descending degree (ties by id), colors
    ascending.  A branch dies as soon as some edge can no longer reach its
    need even if every uncolored member brings a fresh color; on a full
    assignment that test is the exact condition, so accepted leaves are valid.
    """
    return _search(x.n, *_constraints(x, mode, r), lists=_normalize_lists(x.n, lists))


def chi_exact(x: Graph | Hypergraph, mode="proper", r=0, max_n=12) -> int:
    """Least k such that lists {1..k} everywhere admit a valid coloring.

    x is a Graph in mode "proper" or "dynamic", a Hypergraph in "strong".
    """
    return _least_k(x, mode, r, max_n)[0]
