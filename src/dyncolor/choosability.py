"""Exact choosability: polynomial certificates, then one forall-lists /
exists-coloring search.

A graph is k-choosable when every assignment of k-color lists admits a
valid coloring.  In proper mode only, `is_k_choosable` first tries three
exact certificates, in this order:

- degeneracy: a d-degenerate graph is (d+1)-choosable, so k > d is True;
- at k = 2, Erdos, Rubin and Taylor (1979, "Choosability in graphs"): a
  graph is 2-choosable iff its core is a union of even cycles and
  theta_{2,2,2m} graphs, True or False;
- on a bipartite graph, Alon and Tarsi (1992, "Colorings and orientations
  of graphs"): every Eulerian subgraph has an even number of edges, so an
  orientation with every out-degree below k makes it k-choosable.

Dynamic mode, strong mode and every proper case the certificates leave open
go to the search.  The search sees hyperedges that each need some number of
distinct colors: the mode's constraints from `coloring._constraints`, plus,
on a graph, each edge as a hyperedge of its two ends with need 2 (which is
properness; needs below 2 hold on any coloring and are dropped).

Lists are filled one vertex at a time in a maximum-cardinality-search order:
next is the unfilled vertex with the most filled neighbors (vertices sharing
a hyperedge), ties broken by (-degree, id), which keeps the boundary between
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

from .coloring import _check_cap, _constraints
from .graphs import Graph, Hypergraph, bipartition, degeneracy

MET = None  # the status of a hyperedge that already has its need


def is_k_choosable(x: Graph | Hypergraph, k, mode="proper", r=0, max_n=8, max_k=4) -> bool:
    """True iff every assignment of k-color lists admits a valid coloring.

    x is a Graph in mode "proper" or "dynamic", a Hypergraph in "strong".
    """
    edges, need, avoid = _constraints(x, mode, r)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_cap(x.n, max_n)
    if k > max_k:
        raise ValueError(f"k={k} exceeds cap {max_k}; pass max_k to override")
    if x.n == 0:
        return True
    if mode == "proper":
        if k > degeneracy(x):
            # first-fit in reverse peeling order: each vertex meets at most
            # degeneracy colored neighbors
            return True
        if k == 2:
            return _two_choosable(x)
        if bipartition(x) is not None and _orientable(x, k - 1):
            return True
    proper = [] if avoid is None else [(e, 2) for e in x.edges]
    return _all_lists_colorable(x.n, proper + list(zip(edges, need)), k)


def _two_choosable(g):
    """Erdos-Rubin-Taylor: True iff every component of g's core is an even
    cycle or theta_{2,2,2m}.

    The core is what is left after deleting vertices of degree <= 1 over and
    over.  A core component whose only vertices of degree above 2 are two
    degree-3 hubs with two common neighbors is theta_{2,2,L} on L + 3
    vertices, so L is even exactly when the component has odd order.
    """
    core = set(range(g.n))
    while low := {v for v in core if len(g.adj[v] & core) < 2}:
        core -= low
    while core:
        comp, todo = set(), [core.pop()]
        while todo:
            comp.add(v := todo.pop())
            todo += g.adj[v] & core
            core -= g.adj[v]
        deg = {v: len(g.adj[v] & comp) for v in comp}
        hubs = [v for v in comp if deg[v] > 2]
        if hubs:
            ok = len(hubs) == 2 and deg[hubs[0]] == deg[hubs[1]] == 3 and len(comp) % 2 == 1
            ok = ok and len(g.adj[hubs[0]] & g.adj[hubs[1]]) >= 2
        else:
            ok = len(comp) % 2 == 0
        if not ok:
            return False
    return True


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


def _steps(n, needs):
    """Per fill position, how a projected state grows by that vertex.

    A state at depth i is a tuple of the statuses of the hyperedges open
    there (some members filled, some not), in a fixed order.  Step i holds
    one (state position or -1, need or 0 when v is not a member, members
    left unfilled) triple per hyperedge that v closes, then per hyperedge
    open after v: a state that fails to close an edge is dropped before
    anything is copied.
    """
    # a need of 1 holds on any coloring of a nonempty edge
    edges = list(dict.fromkeys((frozenset(e), need) for e, need in needs if need >= 2))
    near = [set() for _ in range(n)]
    for e, _ in edges:
        for v in e:
            near[v] |= e - {v}
    order, filled, left = [], [0] * n, set(range(n))
    while left:
        v = min(left, key=lambda u: (-filled[u], -len(near[u]), u))
        order.append(v)
        left.remove(v)
        for u in near[v]:
            filled[u] += 1
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


def _all_lists_colorable(n, needs, k):
    steps = _steps(n, needs)
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
