"""Exact coloring predicates and desk-scale solvers.

Solvers are exhaustive backtrackers meant for small instances; every public
entry point with exponential behavior takes a size guard as a keyword
parameter (the defaults are the supported scale, not hard limits).

Choosability (`is_k_choosable`, `hyper_is_k_strong_choosable`) lives in the
`choosability` module: one forall-lists / exists-coloring search that fills
lists in maximum-cardinality-search order and carries the set of feasible
colorings projected onto the boundary, memoized up to color renaming.
"""

from __future__ import annotations

from .graphs import Graph, Hypergraph


def _check_coloring(n, coloring):
    if len(coloring) != n:
        raise ValueError(f"coloring has {len(coloring)} entries for {n} vertices")


def _check_mode(mode, r):
    if mode not in ("proper", "dynamic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "dynamic" and r < 1:
        raise ValueError(f"dynamic mode needs r >= 1, got {r}")


def _normalize_lists(n, lists):
    if len(lists) != n:
        raise ValueError(f"list assignment has {len(lists)} entries for {n} vertices")
    out = []
    for v, colors in enumerate(lists):
        t = tuple(sorted(set(colors)))
        if not t:
            raise ValueError(f"empty color list at vertex {v}")
        out.append(t)
    return out


def is_proper(g: Graph, coloring) -> bool:
    """True when no edge joins two equal colors."""
    _check_coloring(g.n, coloring)
    return all(coloring[u] != coloring[v] for u, v in g.edges)


def is_r_dynamic(g: Graph, coloring, r) -> bool:
    """Proper, and every vertex sees min(r, d(v)) distinct neighbor colors."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not is_proper(g, coloring):
        return False
    for v in range(g.n):
        seen = {coloring[u] for u in g.adj[v]}
        if len(seen) < min(r, g.degree(v)):
            return False
    return True


def is_r_strong(h: Hypergraph, coloring, r) -> bool:
    """Every edge carries min(r, |e|) distinct colors; properness not required."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    _check_coloring(h.n, coloring)
    for e in h.edges:
        if len({coloring[v] for v in e}) < min(r, len(e)):
            return False
    return True


def solve_list_coloring(g: Graph, lists, mode="proper", r=0):
    """Find a coloring with c(v) in lists[v] meeting the mode, or None.

    Exhaustive backtracking: vertices by descending degree (ties by id),
    colors ascending.  In dynamic mode a branch dies as soon as some vertex
    can no longer reach min(r, d) distinct neighbor colors even if every
    uncolored neighbor brings a fresh one; on a full assignment that test
    degenerates to the exact dynamic condition, so accepted leaves are valid.
    """
    _check_mode(mode, r)
    lists = _normalize_lists(g.n, lists)
    if g.n == 0:
        return []
    dynamic = mode == "dynamic"
    adj = g.adj
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    color = [None] * g.n
    colored_nbrs = [0] * g.n
    nbr_color_mult = [dict() for _ in range(g.n)]
    spare = [len(a) - min(r, len(a)) for a in adj]  # repeats each vertex can afford
    # An explicit stack of color iterators, one per depth, so that the search
    # depth is not bounded by the interpreter's recursion limit.  A vertex
    # still colored at the loop head was extended (or pruned) with that
    # color; it is taken off before the next color is tried.
    stack = [iter(lists[order[0]])]
    while stack:
        v = order[len(stack) - 1]
        nbrs = adj[v]
        c = color[v]
        if c is not None:
            color[v] = None
            for u in nbrs:
                colored_nbrs[u] -= 1
                mult = nbr_color_mult[u]
                if mult[c] == 1:
                    del mult[c]
                else:
                    mult[c] -= 1
        taken = nbr_color_mult[v]  # colors on v's colored neighbors
        for c in stack[-1]:
            if c not in taken:
                break
        else:
            stack.pop()
            continue
        color[v] = c
        # Every vertex passed the dynamic test before this placement, so
        # only a neighbor that now sees c twice can fail it.
        pruned = False
        for u in nbrs:
            colored_nbrs[u] += 1
            mult = nbr_color_mult[u]
            if c in mult:
                mult[c] += 1
                if dynamic and colored_nbrs[u] - len(mult) > spare[u]:
                    pruned = True
            else:
                mult[c] = 1
        if pruned:
            continue
        if len(stack) == g.n:
            return list(color)
        stack.append(iter(lists[order[len(stack)]]))
    return None


def chi_exact(g: Graph, mode="proper", r=0, max_n=12) -> int:
    """Least k such that lists {1..k} everywhere admit a valid coloring.

    Starts at the trivial lower bound: 1 without edges, else 2 in proper
    mode and min(r, maxdeg) + 1 in dynamic mode (a vertex of maximum degree
    differs from its neighbors, which carry min(r, maxdeg) colors).
    Terminates at k = n at the latest: the all-distinct coloring is proper
    and gives every vertex d(v) >= min(r, d(v)) neighbor colors.
    """
    _check_mode(mode, r)
    if g.n > max_n:
        raise ValueError(f"n={g.n} exceeds cap {max_n}; pass max_n to override")
    if g.n == 0:
        return 0
    if not g.edges:
        low = 1
    elif mode == "proper":
        low = 2
    else:
        low = min(r, max(map(len, g.adj))) + 1
    for k in range(low, g.n + 1):
        lists = [tuple(range(1, k + 1))] * g.n
        if solve_list_coloring(g, lists, mode, r) is not None:
            return k
    raise AssertionError("unreachable: n colors always suffice")


def _strong_backtrack(h: Hypergraph, r, lists=None, k=None):
    """Search for an r-strong coloring; exactly one of lists / k drives it.

    With `lists`, colors come from each vertex's list.  With `k`, colors are
    1..k restricted to first-use canonical order (sound for existence since
    the strong condition is renaming-invariant).
    """
    if (lists is None) == (k is None):
        raise ValueError("need exactly one of lists, k")
    if lists is not None:
        lists = _normalize_lists(h.n, lists)
    membership = [[] for _ in range(h.n)]
    for j, e in enumerate(h.edges):
        for v in e:
            membership[v].append(j)
    order = sorted(range(h.n), key=lambda v: (-len(membership[v]), v))
    color = [None] * h.n
    colored_in_edge = [0] * h.m
    edge_color_mult = [dict() for _ in range(h.m)]
    need = [min(r, len(e)) for e in h.edges]
    size = [len(e) for e in h.edges]

    def place(v, c):
        color[v] = c
        ok = True
        for j in membership[v]:
            colored_in_edge[j] += 1
            mult = edge_color_mult[j]
            mult[c] = mult.get(c, 0) + 1
        for j in membership[v]:
            if len(edge_color_mult[j]) + size[j] - colored_in_edge[j] < need[j]:
                ok = False
                break
        return ok

    def unplace(v, c):
        color[v] = None
        for j in membership[v]:
            colored_in_edge[j] -= 1
            mult = edge_color_mult[j]
            mult[c] -= 1
            if not mult[c]:
                del mult[c]

    def candidates(i, used):
        return iter(lists[order[i]] if lists is not None else range(1, min(used + 1, k) + 1))

    if h.n == 0:
        return []
    # An explicit stack of (color iterator, largest color used above it), so
    # that the search depth is not bounded by the interpreter's recursion
    # limit.  A vertex still colored at the loop head was extended with that
    # color; it is taken off before the next one is tried.
    stack = [(candidates(0, 0), 0)]
    while stack:
        v = order[len(stack) - 1]
        colors, used = stack[-1]
        if color[v] is not None:
            unplace(v, color[v])
        for c in colors:
            if place(v, c):
                break
            unplace(v, c)
        else:
            stack.pop()
            continue
        if len(stack) == h.n:
            return list(color)
        used = max(used, c)
        stack.append((candidates(len(stack), used), used))
    return None


def solve_strong_list_coloring(h: Hypergraph, lists, r):
    """r-strong coloring with c(v) in lists[v], or None."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return _strong_backtrack(h, r, lists=lists)


def hyper_chi_strong(h: Hypergraph, r, max_n=12) -> int:
    """Least k admitting an r-strong k-coloring (all-distinct always works)."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if h.n > max_n:
        raise ValueError(f"n={h.n} exceeds cap {max_n}; pass max_n to override")
    if h.n == 0:
        return 0
    for k in range(1, h.n + 1):
        if _strong_backtrack(h, r, k=k) is not None:
            return k
    raise AssertionError("unreachable: n colors always suffice")
