"""Exact coloring predicates and desk-scale solvers.

Every solver here runs one search engine, `_search`, and every checker one
walk, `_valid`, on the constraints that `_constraints` builds for a graph in
proper or dynamic mode or a hypergraph in strong mode.  That builder is the
one place a mode becomes constraints, and its docstring states the rule.
Vertices go by the number of edges containing them, descending, ties by id
(on graphs: by degree); colors ascend through each vertex's list, or through
1..k in first-use order.  A branch ends when an edge takes more repeats
than it can afford; by forward checking (Haralick and Elliott 1980) when
an uncolored vertex has no candidate color left: on a graph, every color of
its list (or 1..k) is on its neighborhood or, under the need rule, on a
saturated edge containing it; or by a distinct-color bound, the counting
filter of an NValue constraint (Bessiere, Hebrard, Hnich, Kiziltan and
Walsh 2006), when an edge that just took a repeat cannot reach its need
from the colors its uncolored members can still take (see `_search`).
All three cuts remove only branches that hold no valid coloring.  A fourth
rule breaks a symmetry: twins, vertices in the same edges (on a graph: with
the same neighborhood) and, in list mode, with the same list, take colors
in ascending order along the search order.  Swapping two twins' colors
keeps a coloring valid, so the lexicographically least valid coloring
already does that; K_{12,12}'s chi_3 refutes k = 5 in milliseconds where it
ran past a minute.  At a dead end the search jumps back by conflict-directed
backjumping (Prosser 1993): to the latest vertex whose color the failures
there read, or out of the search, with None at that k, when they read
none, as when a connected component cannot be colored.  The jumps skip only
branches without a valid coloring, so no leaf moves (see `_search`).  So the
first leaf in this order, and every coloring returned, is the one a
chronological search without the cuts would return.
The exact chromatic numbers are the least k at which the first-use search
succeeds, and every first-use decision goes through `_least_k`, one
`_search` call over its ks that derives the order and twin table once:
`chi_exact`, `construction_report`, which lifts its strong coloring, and
choosability's k-coloring rung at a single k.  Whether 1..k admit a
valid coloring is the same in every vertex order, so `_least_k` searches a
graph in maximum-cardinality-search order (`_mcs_order`: next the vertex
with the most ordered neighbors), where a relabelling moves only ties and a
clash shows while the branch is short, and a hypergraph in the degree order
above; ordering by co-membership did not help there.  The list searches keep the
degree order, because tests pin their first leaf.  A proper list coloring
first tries a first-fit descent (`_first_fit`) in that order: a descent that
never dead-ends is a valid coloring, so no cut touches its path and its
coloring is the search's first leaf.  `_proper_list_coloring` runs the
search only after a dead end; `solve_list_coloring` and the sublist
pipeline share it.

A list's normal form is a sorted tuple of distinct, hashable colors, and
the type `_Sorted` is the one mark that a list is in it: `_normalize_lists`
passes a `_Sorted` list through after its length check alone and builds
every other list as one, and the sampler of `sublists` draws them with
`random.Random`, so lists that were parsed or drawn are not rebuilt.

Solvers are exhaustive and meant for small instances.  `chi_exact`,
`construction_report` and exact-mode `experiment_random_graphs` take a
size guard `max_n`, `is_k_choosable` also `max_k` (the defaults are the
supported scale, not hard limits); `solve_list_coloring`, and so `solve
--mode exact` and the pipeline's search fallback, is unbounded until
the search gets a budget.

Choosability (`is_k_choosable`) lives in the `choosability` module:
`_least_k` at k answers False when 1..k admit no coloring (ch >= chi);
otherwise one forall-lists / exists-coloring search fills lists in
`_mcs_order` of its co-membership graph and carries the set of feasible
colorings projected onto the boundary, memoized up to color renaming.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .graphs import Graph, Hypergraph


def _check_len(n, seq, what):
    if len(seq) != n:
        raise ValueError(f"{what} has {len(seq)} entries for {n} vertices")


def _is_color(c):
    """The color rule of the JSON inputs: a non-negative int, bools excluded."""
    return isinstance(c, int) and not isinstance(c, bool) and c >= 0


def _check_r(value, floor, name="r"):
    """The one floor rule of every numeric argument: r, k, n, sizes, degrees; None fails it."""
    if value is None or value < floor:
        raise ValueError(f"{name} must be >= {floor}, got {value}")


def _check_slack(slack, r):
    _check_r(r, 2)
    if slack < r - 1:
        raise ValueError(f"slack {slack} below the floor r-1 = {r - 1}")


def _check_cap(n, max_n, name="n"):
    _check_r(max_n, 0, f"max_{name}")
    if n > max_n:
        raise ValueError(f"{name}={n} exceeds cap {max_n}; pass max_{name} to override")


class _Sorted(tuple):
    """A list in normal form: its colors distinct, ascending and hashed.

    Only `_normalize_lists` and the `random.Random` draws of the `sublists`
    sampler make one, so a list of this type needs no second look.
    """

    __slots__ = ()


def _normalize_lists(n, lists, floor=1):
    """Each list as a sorted tuple of distinct colors, at least floor of them.

    A `_Sorted` list (parsed, or drawn by `random.Random`) comes back as the
    same object after the floor check alone; any other value, a plain
    ascending tuple too, becomes _Sorted(sorted(set(colors))).
    """
    _check_len(n, lists, "list assignment")
    out = []
    for v, colors in enumerate(lists):
        t = colors if type(colors) is _Sorted else _Sorted(sorted(set(colors)))
        if len(t) < floor:
            raise ValueError(f"list at vertex {v} has {len(t)} colors, needs >= {floor}")
        out.append(t)
    return out


def is_proper(g: Graph, coloring) -> bool:
    """True when no edge joins two equal colors."""
    return _valid(g, "proper", 0, coloring)


def is_r_dynamic(g: Graph, coloring, r) -> bool:
    """Proper, and every vertex sees min(r, d(v)) distinct neighbor colors."""
    return _valid(g, "dynamic", r, coloring)


def is_r_strong(h: Hypergraph, coloring, r) -> bool:
    """Every edge carries min(r, |e|) distinct colors; properness not required."""
    return _valid(h, "strong", r, coloring)


def _valid(x, mode, r, coloring):
    """True when coloring meets the constraints of x in mode, after their checks.

    One walk of the edges puts each edge's colors in a set, which must hold
    need[j] colors; on a graph, edge j is N(j), so vertex j's own color must
    also be missing from it.  So colors must be hashable, and two colors
    clash when a set finds one as the other: equal, or the same object, as
    one NaN is.
    """
    edges, need, graph = _constraints(x, mode, r)
    _check_len(x.n, coloring, "coloring")
    for j, e in enumerate(edges):
        seen = {coloring[u] for u in e}
        if len(seen) < need[j] or graph and coloring[j] in seen:
            return False
    return True


def _constraints(x, mode, r):
    """Both search engines' input (edges, need, graph) for x in mode, after the checks.

    A graph takes mode "proper" or "dynamic", a hypergraph only "strong";
    then r must be >= 0 in proper mode, which ignores it, and >= 1 otherwise.
    On a graph (graph is True) edge u is the neighborhood N(u), with need
    min(r, d(u)) in dynamic mode and 0 in proper mode, and no vertex v may
    take a color on N(v) (the avoid rule), which is properness.  So an
    r-dynamic coloring is a proper one that is r-strong on the neighborhood
    hypergraph.  Strong mode takes the hyperedges with need min(r, |e|).
    """
    graph = isinstance(x, Graph)
    if mode not in (("proper", "dynamic") if graph else ("strong",)):
        raise ValueError(f"unknown mode {mode!r}")
    _check_r(r, 0 if mode == "proper" else 1)
    edges = x.adj if graph else x.edges
    need = [0] * len(edges) if mode == "proper" else [len(e) if len(e) < r else r for e in edges]
    return edges, need, graph


def _order(member):
    """The search's vertex order: by len(member[v]) descending, ties by id.

    member[v] lists the edges containing v; on a graph in proper or dynamic
    mode they are the neighborhoods N(u) of v's neighbors u, so member is
    the adjacency rows themselves, as _search passes it, and the count is
    v's degree.  Ties keep id order because sorted is stable.
    """
    count = [-len(m) for m in member]
    return sorted(range(len(member)), key=count.__getitem__)


def _mcs_order(adj):
    """Maximum-cardinality-search order of the adjacency rows adj.

    Next is the unordered vertex with the most ordered neighbors, ties by
    degree, descending, then by id (Tarjan and Yannakakis 1984); so the first
    vertex, and the first of each further component, where every count is
    0, is one of largest degree.  The tie rule is _order's, so a vertex's
    rank is its place in _order(adj), and one int keys it in a min-heap:
    rank - (ordered neighbors) * n, which sorts by the count, descending,
    then by rank, and gives the vertex back as by_rank[key % n].  All
    counts start at 0, so the first keys are the ranks, already a heap.
    The heap holds one entry per count a vertex has had; an entry whose key
    is no longer the vertex's is skipped, and an ordered vertex's key is n,
    which no entry holds.
    """
    n = len(adj)
    by_rank = _order(adj)
    key = [0] * n
    for i, v in enumerate(by_rank):
        key[v] = i
    heap = list(range(n))
    order = []
    while heap:
        k = heappop(heap)
        v = by_rank[k % n]
        if k != key[v]:
            continue
        key[v] = n
        order.append(v)
        for u in adj[v]:
            k = key[u]
            if k < n:
                key[u] = k = k - n
                heappush(heap, k)
    return order


def _first_fit(adj, lists):
    """_search's first descent in proper mode: the coloring, or None at a dead end.

    Each vertex in _order takes the first color of its list that no colored
    neighbor holds.  When no vertex runs out of colors the result is a proper
    coloring, so every prefix of this path has a valid completion and none of
    _search's cuts ends it: it is the first leaf of _search, the coloring it
    returns.
    """
    color = [None] * len(adj)
    for v in _order(adj):
        taken = {color[u] for u in adj[v]}
        for c in lists[v]:
            if c not in taken:
                color[v] = c
                break
        else:
            return None
    return color


def _proper_list_coloring(g, lists):
    """_search's first proper coloring of g from normalized lists, _first_fit's if it has one."""
    coloring = _first_fit(g.adj, lists)
    if coloring is not None:
        return coloring
    return _search(g.n, *_constraints(g, "proper", 0), lists=lists)[1]


def _search(n, edges, need, graph, lists=None, ks=None, order=None):
    """(k, the first valid coloring in search order), or (None, None).

    Valid: every edge j holds need[j] distinct colors, and on a graph
    (graph is True, edge v being N(v)) no vertex v shares a color with N(v).
    Vertices go in the given order, by default _order's (degree).  Exactly
    one of lists (colors of v ascending from lists[v]; k is None) and ks
    (for each k in turn, colors 1..k in first-use order: those used so far,
    then one fresh; k is the first that admits a coloring) drives it;
    first-use order finds a coloring whenever 1..k admits one, since
    validity does not depend on the names of the colors.  Nor does it depend
    on the vertex order, which moves only which coloring comes first.  The
    edge index member (member[v]: the ids of the edges containing v), the
    order and the twin table are built once for all of ks; on a graph the
    index is the rows themselves, since v lies in N(j) exactly when j lies
    in N(v), and only a hypergraph's is built.

    A branch ends, after v takes c, when an edge holds more repeats than
    len(e) - need allows (spare), or when forward checking finds an
    uncolored vertex u with none of its candidates left (lists[u], or
    1..k).  On a graph u may not take a color on N(u) (avoid rule).  An edge
    j whose repeats equal spare[j] is saturated: any further repeat breaks
    it, so its uncolored members may not take a color it holds (need rule).
    Only vertices whose choices just shrank are checked: v's uncolored
    neighbors whose N gained c, against N's colors, and the uncolored
    members of v's saturated edges, each once however many such edges share
    it, against N(u)'s colors plus those of every saturated edge containing
    u.  The third cut is the distinct-color bound: an unsaturated edge j on
    which c is a repeat and which holds fewer than need[j] colors must still
    find need[j] - (colors held) colors it does not hold among the
    candidates of its uncolored members, less on a graph those on each
    member's N (avoid rule); the scan stops once it has them.  Each
    uncolored member adds at most one color, and a colored vertex keeps its
    color below this node, so when the scan falls short no completion meets
    j's need.  Every completion of a cut branch breaks some constraint, so
    the depth-first order finds the same first leaf as a search without
    these cuts.

    Twins: when u comes before v in the order, lies in the same edges (on a
    graph: N(u) = N(v)) and, in list mode, has the same list, v tries only
    colors from color[u] on: 1..k from color[u], or its list from color[u]'s
    position.  Swapping the colors of two such vertices keeps a coloring
    valid, so the lexicographically least valid coloring along the order,
    the first leaf in both modes, already meets this rule; the rule keeps
    that leaf and cuts only branches without it.  Each v is tied to the
    last such u before it, from a table built in one pass over the order.

    Backjumping (conflict-directed, Prosser 1993): each depth keeps a
    conflict set of edge ids (on a graph id x stands for N(x)) whose colored
    members' colors its failures read.  A repeat past spare, the avoid rule
    and the bound read edge j, and on a graph the bound also reads N(u) of
    each uncolored member u; the need rule reads every saturated edge
    containing u, and N(u) on a graph.  A depth's set is made at its first
    failure, so a search that never fails makes none; on a graph N(v), read
    by each color skipped for being on N(v), joins it at v's dead end.  A
    fresh color that first-use order leaves untried fails for the same
    reasons as the fresh color it tries, since the two swap.  Twins need
    nothing of their own: v's first color is its twin u's, which v never
    skips (on a graph it is not on N(v) = N(u)), and whatever ends that
    color reads an edge that holds v, so the set holds an edge that holds u
    too.  When every color of v at depth d has failed, the colors of those
    edges' members at earlier depths leave no valid coloring, whatever the
    depths between hold.  So the search walks back to the latest such depth,
    merges the set into that depth's (the smaller into the larger, or whole
    where it has none), and undoes the depths in between without trying
    their other colors.  Only the members colored when a set is read count,
    so the members a jump uncolors drop out with no id taken out, and a set
    holds each id once.  When no member is colored, no earlier color
    matters: the answer at this k is None.  No cut reads across connected
    components, so a component that cannot be colored ends the search at its
    dead end, however many colorings the earlier components have.  The jumps
    skip only branches without a valid coloring, so the first leaf is the
    one chronological backtracking finds (Kondrak and van Beek 1997).
    """
    if graph:  # v lies in N(j) exactly when j lies in N(v): the rows are the index
        member = edges
    else:
        member = [[] for _ in range(n)]
        for j, e in enumerate(edges):
            for v in e:
                member[v].append(j)
    if order is None:
        order = _order(member)
    twin = [None] * n  # the last vertex before v with v's edges (and list), or None
    last = {}
    for v in order:
        key = tuple(member[v])
        if lists is not None:
            key = key, lists[v]
        twin[v] = last.get(key)
        last[key] = v
    spare = [len(e) - t for e, t in zip(edges, need)]  # repeats each edge can afford
    top = [0] * (n + 1)  # first-use order: the largest color on order[:depth]
    for k in ks if lists is None else (None,):
        if n == 0:
            return k, []
        if k is None:  # the colors each vertex may take, and how many
            cands, size = lists, [len(c) for c in lists]
        else:
            cands, size = [range(1, k + 1)] * n, [k] * n
        repeats = [0] * len(edges)
        mult = [{} for _ in edges]  # color -> count on the colored members of each edge
        taken = mult if graph else [()] * n  # the colors on N(v), which v may not take
        color = [None] * n
        # An explicit stack of color iterators, one per depth, so that the
        # search depth is not bounded by the interpreter's recursion limit,
        # and beside it the stack conf of the depths' conflict sets (None
        # until a color there fails).  A vertex still colored at the loop head
        # was extended (or pruned) with that color; it is taken off before the
        # next one is tried, and while the search jumps back to depth back,
        # each depth above back is popped once its color is off.
        stack = [iter(lists[order[0]] if k is None else (1,))]
        conf = [None]
        back = n
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
            if depth > back:
                stack.pop()
                conf.pop()
                continue
            back = n
            held = taken[v]
            for c in stack[-1]:
                if c not in held:
                    break
            else:
                cs = conf.pop() or set()
                if graph:
                    cs.add(v)
                back = depth - 1  # the latest depth whose vertex lies in an edge of cs
                while back >= 0 and cs.isdisjoint(member[order[back]]):
                    back -= 1
                if back < 0:  # no earlier color matters: no valid coloring at this k
                    break
                # the smaller set into the larger, so a chain of jumps stays linear
                if conf[back] is None or len(cs) > len(conf[back]):
                    conf[back], cs = cs, conf[back]
                if cs:
                    conf[back] |= cs
                stack.pop()
                continue
            color[v] = c
            # A fresh color keeps an edge's distinct colors plus uncolored
            # members unchanged, so only an edge that now holds c twice can fall
            # below its need.  In first-use order the colors in use are 1..used,
            # so forward checking finds no vertex without candidates until all
            # of 1..k are in use.  why holds the edge ids the first cut read;
            # later cuts are not checked.
            why = None
            if k is None:
                look = True
            else:
                used = top[depth + 1] = c if c > top[depth] else top[depth]
                look = used == k
            full = []
            for j in member[v]:
                mj = mult[j]
                if c in mj:
                    mj[c] += 1
                    repeats[j] += 1
                    if repeats[j] > spare[j]:
                        why = why or (j,)
                    elif look and not why and len(mj) < need[j] and repeats[j] < spare[j]:
                        # distinct-color bound.  The N(u) this loop has yet to
                        # reach lack only c, which j holds, so they exclude here
                        # what they will exclude once updated
                        want = need[j] - len(mj)
                        fresh = set()
                        for u in edges[j]:
                            if color[u] is None:
                                held = taken[u]
                                for d in cands[u]:
                                    if d not in mj and d not in held:
                                        fresh.add(d)
                                if len(fresh) >= want:
                                    break
                        else:
                            why = [j]
                            if graph:
                                why += [u for u in edges[j] if color[u] is None]
                else:
                    mj[c] = 1
                    if (  # avoid rule: c is new on N(j)
                        look
                        and not why
                        and graph
                        and color[j] is None
                        and len(mj) >= size[j]
                        and (lists is None or all(map(mj.__contains__, lists[j])))
                    ):
                        why = (j,)
                if look and repeats[j] == spare[j]:
                    full.append(j)
            if not why and full:  # need rule, one check per vertex however many edges share it
                for u in {u for j in full for u in edges[j] if color[u] is None}:
                    seen = set(taken[u])
                    for i in member[u]:
                        if repeats[i] == spare[i]:
                            seen.update(mult[i])
                    if len(seen) >= size[u] and (lists is None or all(map(seen.__contains__, lists[u]))):
                        why = [u] if graph else []
                        why += [i for i in member[u] if repeats[i] == spare[i]]
                        break
            if why:
                if conf[depth] is None:
                    conf[depth] = set()
                conf[depth].update(why)
                continue
            if depth + 1 == n:
                return k, list(color)
            w = order[depth + 1]
            u = twin[w]
            if k is None:
                stack.append(iter(lists[w] if u is None else lists[w][lists[u].index(color[u]):]))
            else:
                stack.append(iter(range(1 if u is None else color[u], used + 2 if used < k else k + 1)))
            conf.append(None)
    return None, None


def _least_k(x, mode, r, max_n, ks=None):
    """The least k in ks at which colors 1..k admit a valid coloring, and the first one.

    The one first-use decision (see the module docstring for its callers and
    its order), made by one _search call over all of ks, so the order and
    the twin table are derived once, not per k.  A component that 1..k
    cannot color ends that k at its dead end, which no earlier component's
    color explains.  The coloring is the first leaf in that order: the
    lexicographically least valid one along it, which is already in
    first-use form.  ks defaults to the trivial lower bound up to n: the
    largest need, which alone takes that many colors, plus one on a graph
    with an edge (a vertex of maximum degree differs from its neighbors,
    which carry min(r, maxdeg) colors in dynamic mode).  That range ends at
    k = n at the latest, since the all-distinct coloring is valid in every
    mode; given ks with no colorable k, the result is (None, None).
    """
    edges, need, graph = _constraints(x, mode, r)
    _check_cap(x.n, max_n)
    if x.n == 0:
        return 0, []
    lower = max([1, *need]) + (graph and any(x.adj))
    order = _mcs_order(x.adj) if graph else None
    k, coloring = _search(x.n, edges, need, graph, ks=ks or range(lower, x.n + 1), order=order)
    if k is None and ks is None:
        raise AssertionError("unreachable: n colors always suffice")
    return k, coloring


def solve_list_coloring(x: Graph | Hypergraph, lists, mode="proper", r=0):
    """Find a coloring with c(v) in lists[v] meeting the mode, or None.

    x is a Graph in mode "proper" or "dynamic", a Hypergraph in "strong".
    Exhaustive search: vertices by descending degree (ties by id), colors
    ascending.  A branch dies as soon as some edge can no longer reach its
    need even if every uncolored member brings a fresh color (on a full
    assignment that test is the exact condition, so accepted leaves are
    valid), when forward checking leaves an uncolored vertex no color of
    its list: all of them are on its neighborhood (graphs) or held by
    saturated edges containing it, edges that can afford no further repeat,
    or when an edge that just took a repeat finds too few colors it lacks
    in its uncolored members' lists (less, on a graph, the colors on each
    member's neighborhood) to reach its need, as each member adds at most
    one.  Twins, vertices in the same edges with the same list, take colors
    in list order along the search order, as the first valid coloring does.
    The cuts keep every branch that holds that coloring, so it is the
    result.  A dead end jumps back to the deepest vertex whose color the
    failures there read, past the vertices between, and answers None when
    they read none, as when a connected component's lists admit no
    coloring; the jumps skip only branches without a valid coloring, so
    they keep it.
    """
    constraints = _constraints(x, mode, r)
    lists = _normalize_lists(x.n, lists)
    if mode == "proper":
        return _proper_list_coloring(x, lists)
    return _search(x.n, *constraints, lists=lists)[1]


def chi_exact(x: Graph | Hypergraph, mode="proper", r=0, max_n=12) -> int:
    """Least k such that lists {1..k} everywhere admit a valid coloring.

    x is a Graph in mode "proper" or "dynamic", a Hypergraph in "strong".
    _least_k decides each k from the trivial lower bound up, in _mcs_order
    on a graph and in degree order on a hypergraph.  Refuting a k is most of
    the work; on K_{a,b} the vertices of a side are twins, which the search
    colors in ascending order only, and its distinct-color bound ends a
    branch as soon as a neighborhood takes a repeat that the colors left to
    its uncolored members cannot make up.  A dead end jumps back to the
    vertex whose color caused it, so on a disconnected x a k that some
    component cannot take fails without backtracking through the other
    components' colorings.
    """
    return _least_k(x, mode, r, max_n)[0]
