"""Greedy r-dynamic list coloring.

Needs every list to hold at least r*max_degree + 1 colors; under that floor
the forbidden set at each step stays at most r*max_degree, so a color is
always available and the result is proper and r-dynamic.
"""

from __future__ import annotations

from .coloring import _constraints, _normalize_lists
from .graphs import Graph


def greedy_r_dynamic(g: Graph, lists, r, order=None):
    """Color greedily so the result is proper and r-dynamic.

    At each vertex v the forbidden colors are (a) colors already on
    neighbors of v, and (b) for every neighbor u that has not yet collected
    min(r, d(u)) distinct colors in its own neighborhood, all colors already
    seen there (reusing one would waste u's chance to reach its quota, since
    v may be u's last uncolored neighbor).  (a) contributes at most Delta
    colors, (b) at most Delta*(r-1), so lists of size r*Delta+1 never run
    dry.  Default order is ascending vertex id.
    """
    adj, short, _ = _constraints(g, "dynamic", r)  # short[u]: how many more seen[u] needs
    norm = _normalize_lists(g.n, lists, floor=r * max(map(len, adj), default=0) + 1)
    if order is None:
        order = range(g.n)
    else:
        order = list(order)
        if sorted(order) != list(range(g.n)):
            raise ValueError("order must be a permutation of the vertices")

    color = [None] * g.n
    seen = [set() for _ in range(g.n)]  # distinct colors on each neighborhood, till short is 0
    for v in order:
        forbidden = {color[u] for u in adj[v]}
        for u in adj[v]:
            if short[u]:
                forbidden |= seen[u]
        for c in norm[v]:
            if c not in forbidden:
                color[v] = c
                break
        else:
            raise AssertionError(f"no admissible color at vertex {v}; precondition guarantees one")
        for u in adj[v]:
            if short[u]:  # then c was forbidden if in seen[u], so it is new there
                seen[u].add(c)
                short[u] -= 1
    return color
