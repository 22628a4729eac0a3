"""Shared brute-force oracles and instance builders for the tests.

The oracles restate the validity predicates inline (not via the package's
checkers) so that frozen expected values rest on an independent code path.
"""

from __future__ import annotations

import itertools
import math
import random

from dyncolor import (
    build_graph,
    candidate_family,
    is_transversal,
    neighborhood_color_hypergraph,
    solve_list_coloring,
)
from dyncolor.coloring import _check_len, _check_r
from dyncolor.graphs import Graph, degree_stats
from dyncolor.sublists import ResampleLog


def oracle_normalize_lists(n, lists, floor=1):
    """_normalize_lists as first written: every list through set and sorted."""
    _check_len(n, lists, "list assignment")
    out = []
    for v, colors in enumerate(lists):
        t = tuple(sorted(set(colors)))
        if len(t) < floor:
            raise ValueError(f"list at vertex {v} has {len(t)} colors, needs >= {floor}")
        out.append(t)
    return out


def oracle_validator(g, r=0):
    """oracle_valid's check as a function of the coloring alone.

    g.edges is read once, here: Graph builds the pairs on every read, and the
    brute-force oracles check thousands of colorings of one graph.
    """
    edges = g.edges

    def valid(coloring):
        # properness, then the dynamic quota, spelled out from the definitions
        for u, v in edges:
            if coloring[u] == coloring[v]:
                return False
        if r:
            for v in range(g.n):
                seen = {coloring[u] for u in g.adj[v]}
                if len(seen) < min(r, len(g.adj[v])):
                    return False
        return True

    return valid


def oracle_valid(g, coloring, r=0):
    return oracle_validator(g, r)(coloring)


def oracle_chi(g, r=0):
    """Least color count by exhaustive product search (tiny n only)."""
    if g.n == 0:
        return 0
    valid = oracle_validator(g, r)
    for k in range(1, g.n + 1):
        for combo in itertools.product(range(1, k + 1), repeat=g.n):
            if valid(combo):
                return k
    raise AssertionError("n colors always suffice")


def oracle_has_small_transversal(h, r):
    for size in range(min(r, h.n) + 1):
        for subset in itertools.combinations(range(h.n), size):
            s = set(subset)
            if all(s & e for e in h.edges):
                return True
    return False


def oracle_resample_until_clear(g, state, max_iters):
    """The full-sweep resampler: every eligible vertex rechecked every sweep.

    Each check builds the neighbor-sublist hypergraph and decides through
    the candidate family, as resample_until_clear did before it rechecked
    locally; the two must agree on log, sublists and draws.
    """
    r = state.r

    def bad_event_holds(g, state, v):
        hv = neighborhood_color_hypergraph(g, state.sublists, v)
        return any(is_transversal(hv, s) for s in candidate_family(hv, min(r - 1, hv.n)))

    eligible = [v for v in range(g.n) if g.degree(v) >= r]
    sweeps = []
    while True:
        violated = [v for v in eligible if bad_event_holds(g, state, v)]
        if not violated:
            status = "clear"
            break
        if len(sweeps) >= max_iters:
            status = "cap_reached"
            break
        sweeps.append(tuple(violated))
        centre = violated[0]
        for w in sorted(g.adj[centre]):
            state.sublists[w] = tuple(sorted(state.rng.sample(state.base[w], state.sublist_size)))
            state.draws += 1
    log = ResampleLog(
        iterations=len(sweeps),
        violations_per_sweep=tuple(sweeps),
        status=status,
    )
    return state, log


def oracle_first_coloring(x, lists, mode="proper", r=0):
    """The first valid coloring from the lists in the solvers' search order.

    x is a graph, or a hypergraph in "strong" mode.  Vertices go by the
    number of edges containing them, descending, ties by id (on a graph: by
    degree), each trying its list in ascending order; this is the
    lexicographically first valid coloring in that order, found by brute
    force.  None when there is no valid coloring.
    """
    if mode == "strong":
        count = [sum(v in e for e in x.edges) for v in range(x.n)]

        def valid(c):
            return all(len({c[v] for v in e}) >= min(r, len(e)) for e in x.edges)
    else:
        count = [len(x.adj[v]) for v in range(x.n)]
        valid = oracle_validator(x, r if mode == "dynamic" else 0)

    order = sorted(range(x.n), key=lambda v: (-count[v], v))
    for combo in itertools.product(*(sorted(set(lists[v])) for v in order)):
        coloring = [None] * x.n
        for v, c in zip(order, combo):
            coloring[v] = c
        if valid(coloring):
            return coloring
    return None


def oracle_list_colorings(g, lists):
    """Yield every proper coloring picking from the given lists."""
    edges = g.edges
    for combo in itertools.product(*lists):
        if all(combo[u] != combo[v] for u, v in edges):
            yield list(combo)


def oracle_is_k_choosable(x, k, mode="proper", r=0):
    """Per-leaf choosability: solve every canonical k-list assignment afresh.

    x is a graph, or a hypergraph in "strong" mode.  Lists are filled in
    (-degree, id) order (hypergraphs: ascending id) with colors canonical in
    first-use order: a fresh color is always the next unused integer, one
    representative per renaming class.  Each leaf tries first-fit (a graph
    coloring it finds counts when it meets the mode) and then the exhaustive
    solver.  This is how is_k_choosable decided before it searched over
    boundary states; the two must agree.
    """
    if mode == "strong":
        order = list(range(x.n))
    else:
        order = sorted(range(x.n), key=lambda v: (-x.degree(v), v))
        valid = oracle_validator(x, r)

    def first_fit(lists):
        color = [None] * x.n
        for v in order:
            used = {color[u] for u in x.adj[v]}
            color[v] = next((c for c in lists[v] if c not in used), None)
            if color[v] is None:
                return None
        return color

    def solvable(lists):
        if mode == "strong":
            return solve_list_coloring(x, lists, mode="strong", r=r) is not None
        color = first_fit(lists)
        if color is not None and valid(color):
            return True
        return solve_list_coloring(x, lists, mode, r) is not None

    lists = [None] * x.n

    def fill(i, used):
        if i == x.n:
            return solvable(lists)
        v = order[i]
        for fresh in range(k + 1):
            news = tuple(range(used + 1, used + fresh + 1))
            for olds in itertools.combinations(range(1, used + 1), k - fresh):
                lists[v] = olds + news
                if not fill(i + 1, used + fresh):
                    return False
        return True

    return fill(0, 0)


def oracle_degeneracy(g):
    """Max over the min-degree peeling order of the degree at removal time.

    Each step takes the remaining vertex of least degree by a min over a
    set, so O(n^2), independent of the package's bucket peel.
    """
    remaining = set(range(g.n))
    deg = {v: g.degree(v) for v in remaining}
    worst = 0
    while remaining:
        v = min(remaining, key=lambda u: (deg[u], u))
        worst = max(worst, deg[v])
        remaining.remove(v)
        for w in g.adj[v]:
            if w in remaining:
                deg[w] -= 1
    return worst


def oracle_k_core(g, k):
    """The vertex set of g's k-core, peeled in rounds.

    Each round removes at once every vertex with fewer than k neighbors left.
    """
    core = set(range(g.n))
    while low := {v for v in core if len(core.intersection(g.adj[v])) < k}:
        core -= low
    return core


def oracle_mcs_order(adj):
    """Maximum-cardinality-search order by its definition, in O(n^2).

    Each step scans every unordered vertex and takes the one with the most
    ordered neighbors, then the largest degree, then the least id; no heap.
    """
    left = set(range(len(adj)))
    order = []
    while left:
        v = min(left, key=lambda u: (-sum(w not in left for w in adj[u]), -len(adj[u]), u))
        left.remove(v)
        order.append(v)
    return order


def oracle_strong_chi(h, r):
    if h.n == 0:
        return 0
    for k in range(1, h.n + 1):
        for combo in itertools.product(range(1, k + 1), repeat=h.n):
            if all(len({combo[v] for v in e}) >= min(r, len(e)) for e in h.edges):
                return k
    raise AssertionError("n colors always suffice")


def oracle_build_graph(n, edge_list):
    """build_graph as first written: a sorted pair set, then the ascending adjacency rows.

    Returns the graph and its sorted pair tuple, which Graph.edges must
    reproduce.  Rejects out-of-range endpoints and self-loops; duplicate and
    reversed pairs collapse to a single edge.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    seen = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        seen.add((u, v) if u < v else (v, u))
    edges = tuple(sorted(seen))
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n=n, adj=tuple(tuple(sorted(s)) for s in nbrs)), edges


def oracle_gnp(n, p, seed):
    """G(n, p) as first written: one rng.random() < p per pair, in (i, j) order.

    generate("gnp") drew this stream before it walked by geometric skips;
    graphs named by their old seed, such as the choosability probe
    gnp(n=8, p=0.45, seed=13), are oracle_gnp(8, 0.45, 13) now.
    """
    rng = random.Random(seed)
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def oracle_gnp_skip(n, p, seed):
    """G(n, p) by geometric skips over the explicit pair list, by flat index.

    The pairs (w, v), w < v, are listed in (v, w) order; each rng.random()
    U moves the index on by 1 + floor(log(1 - U) / log1p(-p)) and keeps the
    pair it lands on.  generate("gnp") walks the same pairs row by row.
    """
    pairs = [(w, v) for v in range(n) for w in range(v)]
    if p == 1:
        return build_graph(n, pairs)
    rng = random.Random(seed)
    edges = []
    i = -1
    while p:
        i += 1 + int(min(math.log(1 - rng.random()) / math.log1p(-p), len(pairs)))
        if i >= len(pairs):
            break
        edges.append(pairs[i])
    return build_graph(n, edges)


def bipartite_regular(side, d, seed):
    """d-regular bipartite graph on 2*side vertices from d disjoint permutations."""
    rng = random.Random(seed)
    perms = []
    while len(perms) < d:
        cand = list(range(side))
        rng.shuffle(cand)
        if all(all(cand[i] != q[i] for i in range(side)) for q in perms):
            perms.append(cand)
    edges = [(i, side + q[i]) for q in perms for i in range(side)]
    return build_graph(2 * side, edges)


def random_lists(n, size, universe, rng):
    pool = list(universe)
    return [sorted(rng.sample(pool, size)) for _ in range(n)]


def oracle_greedy_r_dynamic(g, lists, r, order=None):
    """greedy_r_dynamic as first written: quotas recomputed at every step."""
    _check_r(r, 1)
    if g.n == 0:
        return []
    norm = oracle_normalize_lists(g.n, lists, floor=r * degree_stats(g).max_degree + 1)
    if order is None:
        order = range(g.n)
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")

    color = [None] * g.n
    seen = [set() for _ in range(g.n)]  # distinct colors on each vertex's neighbors
    for v in order:
        forbidden = set()
        for u in g.adj[v]:
            if color[u] is not None:
                forbidden.add(color[u])
            if len(seen[u]) < min(r, g.degree(u)):
                forbidden |= seen[u]
        for c in norm[v]:
            if c not in forbidden:
                color[v] = c
                break
        else:
            raise AssertionError(
                f"no admissible color at vertex {v}; precondition guarantees one"
            )
        for u in g.adj[v]:
            seen[u].add(color[v])
    return color
