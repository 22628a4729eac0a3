"""Exact choosability: the k-core, polynomial certificates, a k-coloring
test, then one forall-lists / exists-coloring search.

A graph is k-choosable when every assignment of k-color lists admits a
valid coloring.  In proper mode only, `is_k_choosable` decides in this
order:

- the k-core, from the core numbers of one O(n + m) peel in `graphs`: a
  vertex of degree below k can always be colored last (Erdos, Rubin and
  Taylor, 1979, "Choosability in graphs"), so the graph is k-choosable iff
  each component of its core is: one O(n + m) walk reads them off in
  ascending order of their least vertex, each relabelled by ascending id.
  An empty core, k > degeneracy, is True;
- per component at k = 2, Erdos-Rubin-Taylor: a connected 2-core is
  2-choosable iff it is an even cycle or theta_{2,2,2m}, True or False;
- per bipartite component, Alon and Tarsi (1992, "Colorings and
  orientations of graphs"): every Eulerian subgraph has an even number of
  edges, so an orientation with every out-degree below k makes it
  k-choosable.

Dynamic mode, strong mode and every proper component the certificates leave
open meet one more rung before the search: ch >= chi, so when the lists
1..k everywhere admit no valid coloring the answer is False.
`coloring._least_k` at that single k decides it, the first-use decision
`chi_exact` runs for every k; it refutes K_4 at k = 3 in a few dozen
microseconds, where the search below enumerates list assignments.  Then the
search: it takes `coloring._constraints` as they are and sees hyperedges
that each need some number of distinct colors: on a graph,
first each edge as a hyperedge of its two ends with need 2 (properness),
then the mode's edges (needs below 2 hold on any coloring and are dropped).

Lists are filled one vertex at a time in a maximum-cardinality-search order
(`coloring._mcs_order`, which `chi_exact` also searches in): next is the
unfilled vertex with the most filled neighbors (vertices sharing a
hyperedge), ties broken by (-degree, id), which keeps the boundary between
filled and unfilled vertices small.  The search carries the set of feasible
colorings of the filled prefix, projected onto what the unfilled vertices
can still see: for each hyperedge with unfilled members, the colors seen on
it so far, or "met" once it has its need.  A state dies when an edge can no
longer reach its need, or closes below it.  An empty set is a list
assignment of the prefix with no coloring, so the answer is False; a
non-empty set after the last vertex means every assignment on that branch
colors.

A color that appears in no state behaves exactly like a color never used.
So the live colors are renumbered 1..L, the next list is drawn as some of
1..L plus fresh colors, and the answer is memoized on (depth, state set).
"""

from __future__ import annotations

from itertools import combinations

from .coloring import _check_cap, _check_r, _constraints, _least_k, _mcs_order
from .graphs import Graph, Hypergraph, _core_numbers, is_bipartite

MET = None  # the status of a hyperedge that already has its need


def is_k_choosable(x: Graph | Hypergraph, k, mode="proper", r=0, max_n=8, max_k=4) -> bool:
    """True iff every assignment of k-color lists admits a valid coloring.

    x is a Graph in mode "proper" or "dynamic", a Hypergraph in "strong".
    """
    _constraints(x, mode, r)  # the mode and r checks, first
    _check_r(k, 1, "k")
    _check_cap(x.n, max_n)
    _check_cap(k, max_k, "k")
    if x.n == 0:
        return True
    if mode == "proper":
        return all(_core_choosable(c, k) for c in _core_components(x, k))
    return _choosable(x, k, mode, r)


def _choosable(x, k, mode, r):
    """The k-coloring rung, then the list search: ch >= chi, so no coloring from 1..k is False."""
    if _least_k(x, mode, r, x.n, (k,))[0] is None:
        return False
    return _all_lists_colorable(x.n, *_constraints(x, mode, r), k)


def _core_components(g, k):
    """The connected components of g's k-core, in ascending order of their least vertex.

    One O(n + m) walk up the core's vertices; each component is relabelled
    0..n'-1 by ascending id, which keeps every row ascending, and built from
    its adjacency.
    """
    core = {v for v, c in enumerate(_core_numbers(g)) if c >= k}
    left = set(core)
    for s in sorted(core):
        if s in left:
            left.remove(s)
            comp = [s]
            for v in comp:
                new = left.intersection(g.adj[v])
                left -= new
                comp += new
            comp.sort()
            name = {v: i for i, v in enumerate(comp)}
            yield Graph(len(comp), tuple(tuple([name[u] for u in g.adj[v] if u in core]) for v in comp))


def _core_choosable(c, k):
    """True iff c, one connected component of a k-core, is k-choosable."""
    if k == 2:
        # Erdos-Rubin-Taylor: an even cycle or theta_{2,2,2m}.  A core whose
        # only vertices of degree above 2 are two degree-3 hubs with two
        # common neighbors is theta_{2,2,L} on L + 3 vertices, so L is even
        # exactly when c has odd order.
        hubs = [v for v in range(c.n) if c.degree(v) > 2]
        if not hubs:
            return c.n % 2 == 0
        ok = len(hubs) == 2 and c.degree(hubs[0]) == c.degree(hubs[1]) == 3 and c.n % 2 == 1
        return ok and len(set(c.adj[hubs[0]]).intersection(c.adj[hubs[1]])) >= 2
    if is_bipartite(c) and _orientable(c, k - 1):
        return True
    return _choosable(c, k, "proper", 0)


def _orientable(g, cap):
    """True iff some orientation of g has every out-degree <= cap.

    Any orientation is repaired vertex by vertex: while s has too many
    out-edges, reverse a shortest out-path from s to a vertex with room.
    When no such vertex is reachable, the vertices reachable from s span
    more than cap edges per vertex, so no orientation exists (Hakimi).
    """
    out = [{w for w in g.adj[v] if w > v} for v in range(g.n)]
    for s in range(g.n):
        while len(out[s]) > cap:
            parent, queue = {s: None}, [s]
            for u in queue:
                if len(out[u]) < cap:
                    break
                for w in out[u] - parent.keys():
                    parent[w] = u
                    queue.append(w)
            else:
                return False
            while parent[u] is not None:
                out[parent[u]].remove(u)
                out[u].add(parent[u])
                u = parent[u]
    return True


def _steps(n, edges, need, graph):
    """Per fill position, how a projected state grows by that vertex.

    The hyperedges: on a graph (graph is True) each edge uv, in Graph.edges
    order, as {u, v} with need 2, then the edges with their needs; needs
    below 2 and repeats are dropped.  A state at depth i is a tuple of the
    statuses of the hyperedges open there (some members filled, some not),
    in a fixed order.  Step i holds one (state position or -1, need or 0
    when v is not a member, members left unfilled) triple per hyperedge that
    v closes, then per hyperedge open after v: a state that fails to close
    an edge is dropped before anything is copied.
    """
    pairs = [(e, 2) for e in Graph(n, edges).edges] if graph else []
    needs = [*pairs, *zip(edges, need)]
    edges = list(dict.fromkeys((frozenset(e), t) for e, t in needs if t >= 2))
    near = [set() for _ in range(n)]
    for e, _ in edges:
        for v in e:
            near[v] |= e - {v}
    order = _mcs_order(near)
    pos = {v: i for i, v in enumerate(order)}
    span = [(min(pos[u] for u in e), max(pos[u] for u in e)) for e, _ in edges]
    steps, opened = [], []
    for i, v in enumerate(order):
        slot = {j: p for p, j in enumerate(opened)}
        opened = [j for j, (a, b) in enumerate(span) if a <= i < b]
        ops = []
        for j in [j for j, (_, b) in enumerate(span) if b == i] + opened:
            e, need = edges[j]
            ops.append((slot.get(j, -1), need if v in e else 0, sum(pos[u] > i for u in e)))
        steps.append(tuple(ops))
    return steps


def _extensions(states, colors, ops):
    """Yield the projected states after giving the next vertex a color from `colors`."""
    for s in states:
        for c in colors:
            new = []
            for p, need, rest in ops:
                seen = s[p] if p >= 0 else frozenset()
                if need and seen is not MET:
                    seen = seen | {c}
                    if len(seen) >= need:
                        seen = MET
                    elif len(seen) + rest < need:
                        break
                if rest:
                    new.append(seen)
            else:
                yield tuple(new)


def _renumber(states):
    """The states with their live colors renamed 1..L, and L."""
    live = sorted({c for s in states for seen in s if seen is not MET for c in seen})
    name = {c: i for i, c in enumerate(live, 1)}
    return frozenset(
        tuple(seen if seen is MET else frozenset(name[c] for c in seen) for seen in s) for s in states
    ), len(live)


def _lists(live, k):
    """Every k-list up to renaming dead colors: olds from 1..live, then fresh ones.

    Lists reusing many live colors come first, so that hard assignments
    (everyone sharing one list) are hit early.
    """
    for fresh in range(k + 1):
        news = tuple(range(live + 1, live + fresh + 1))
        for olds in combinations(range(1, live + 1), k - fresh):
            yield olds + news


def _all_lists_colorable(n, edges, need, graph, k):
    steps = _steps(n, edges, need, graph)
    memo = {}
    # An explicit stack of list iterators, one per depth, so that the depth
    # is not bounded by the interpreter's recursion limit.
    stack = [(0, frozenset([()]), _lists(0, k))]
    ok = True
    while stack:
        i, states, lists = stack[-1]
        child = None
        if ok:
            for colors in lists:
                nxt = _extensions(states, colors, steps[i])
                if i + 1 == n:
                    # at the last vertex one coloring of the whole graph will do
                    ok = next(nxt, None) is not None
                else:
                    # an empty set is an uncolorable prefix, and stays one
                    nxt, live = _renumber(set(nxt))
                    ok = bool(nxt) and memo.get((i + 1, nxt))
                    if ok is None:
                        child = (i + 1, nxt, _lists(live, k))
                        break
                if not ok:
                    break
        if child:
            stack.append(child)
            ok = True
        else:
            memo[i, states] = ok
            stack.pop()
    return ok
