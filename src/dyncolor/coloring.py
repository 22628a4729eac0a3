"""Exact coloring predicates and desk-scale solvers.

Solvers are exhaustive backtrackers meant for small instances; every public
entry point with exponential behavior takes a size guard as a keyword
parameter (the defaults are the supported scale, not hard limits).
"""

from __future__ import annotations

import itertools

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

    Terminates at k = n at the latest: the all-distinct coloring is proper
    and gives every vertex d(v) >= min(r, d(v)) neighbor colors.
    """
    _check_mode(mode, r)
    if g.n > max_n:
        raise ValueError(f"n={g.n} exceeds cap {max_n}; pass max_n to override")
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        lists = [tuple(range(1, k + 1))] * g.n
        if solve_list_coloring(g, lists, mode, r) is not None:
            return k
    raise AssertionError("unreachable: n colors always suffice")


def _greedy_from_lists(g, lists, order):
    # first-fit; success proves the assignment proper-colorable
    color = [None] * g.n
    for v in order:
        used = {color[u] for u in g.adj[v]}
        for c in lists[v]:
            if c not in used:
                color[v] = c
                break
        else:
            return False
    return True


def _forall_list_assignments(n, k, order, solvable):
    """Check solvable(lists) over every size-k list assignment, canonically.

    Lists are filled along `order`; colors are canonical in first-use order
    (a fresh color is always the next unused integer), which enumerates one
    representative per renaming class.  Branches reusing many old colors come
    first so that hard assignments (everyone sharing one list) are hit early.
    Returns False as soon as solvable(lists) does.
    """
    lists = [None] * n

    def fill(i, used):
        if i == n:
            return solvable(lists)
        v = order[i]
        for fresh in range(k + 1):
            old_count = k - fresh
            if old_count > used:
                continue
            news = tuple(range(used + 1, used + fresh + 1))
            for olds in itertools.combinations(range(1, used + 1), old_count):
                lists[v] = olds + news
                if not fill(i + 1, used + fresh):
                    return False
        lists[v] = None
        return True

    return fill(0, 0)


def is_k_choosable(g: Graph, k, mode="proper", r=0, max_n=8, max_k=4) -> bool:
    """True iff every assignment of k-color lists admits a valid coloring."""
    _check_mode(mode, r)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if g.n > max_n:
        raise ValueError(f"n={g.n} exceeds cap {max_n}; pass max_n to override")
    if k > max_k:
        raise ValueError(f"k={k} exceeds cap {max_k}; pass max_k to override")
    if g.n == 0:
        return True
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    if mode == "proper" and k > max(g.degree(v) for v in range(g.n)):
        # more colors than neighbors everywhere: first-fit succeeds on any
        # assignment in any order, so no enumeration is needed
        return True

    def solvable(lists):
        if mode == "proper" and _greedy_from_lists(g, lists, order):
            return True
        return solve_list_coloring(g, lists, mode, r) is not None

    return _forall_list_assignments(g.n, k, order, solvable)


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

    def extend(i, used):
        if i == h.n:
            return True
        v = order[i]
        if lists is not None:
            candidates = lists[v]
        else:
            candidates = range(1, min(used + 1, k) + 1)
        for c in candidates:
            if place(v, c) and extend(i + 1, max(used, c)):
                return True
            unplace(v, c)
        return False

    return list(color) if extend(0, 0) else None


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


def hyper_is_k_strong_choosable(h: Hypergraph, k, r, max_n=8, max_k=4) -> bool:
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if h.n > max_n:
        raise ValueError(f"n={h.n} exceeds cap {max_n}; pass max_n to override")
    if k > max_k:
        raise ValueError(f"k={k} exceeds cap {max_k}; pass max_k to override")
    if h.n == 0:
        return True
    order = list(range(h.n))

    def solvable(lists):
        return _strong_backtrack(h, r, lists=lists) is not None

    return _forall_list_assignments(h.n, k, order, solvable)
