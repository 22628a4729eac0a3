"""Core graph and hypergraph types, generators, and structural helpers."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored as sorted pairs, deduplicated; adj is the symmetric
    adjacency view derived from them.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])


@dataclass(frozen=True)
class Hypergraph:
    """Hypergraph on vertices 0..n-1 with an ordered edge list.

    Edge order is meaningful (the transversal recursion branches on the
    lowest-index edge) and duplicate edges are kept.  Empty edges are legal
    in memory; the text format refuses them (see io module).
    """

    n: int
    edges: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class DegreeStats:
    max_degree: int
    min_degree: int


def build_graph(n, edge_list) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Rejects out-of-range endpoints and self-loops; duplicate and reversed
    pairs collapse to a single edge.
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
    return Graph(n=n, edges=edges, adj=tuple(frozenset(s) for s in nbrs))


def build_hypergraph(n, edge_list) -> Hypergraph:
    """Build a Hypergraph from an iterable of vertex collections.

    Edge order and multiplicity are preserved. Empty edges are allowed.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    edges = []
    for e in edge_list:
        fe = frozenset(e)
        for v in fe:
            if not (0 <= v < n):
                raise ValueError(f"edge vertex {v} out of range for n={n}")
        edges.append(fe)
    return Hypergraph(n=n, edges=tuple(edges))


def degree_stats(g: Graph) -> DegreeStats:
    if g.n == 0:
        raise ValueError("degree stats undefined for the empty graph")
    degs = tuple(len(g.adj[v]) for v in range(g.n))
    return DegreeStats(max_degree=max(degs), min_degree=min(degs))


_FAMILIES = {
    "cycle": ("n",),
    "complete": ("n",),
    "complete_bipartite": ("a", "b"),
    "gnp": ("n", "p"),
    "random_regular": ("n", "d"),
}


def generate(kind, seed=0, **params) -> Graph:
    """Deterministic graph generators.

    kind selects the family and params must be exactly its parameters;
    seed drives all randomness (via random.Random):

    - "cycle": n            cycle on n >= 3 vertices
    - "complete": n         K_n
    - "complete_bipartite": a, b
    - "gnp": n, p           each pair kept independently with probability p,
                              by the geometric-skip walk of Batagelj and
                              Brandes (2005): one draw per kept edge plus one,
                              so O(n + m).  The walk replaced a draw per pair,
                              so seeded graphs, and the experiment reports
                              built on them, differ from versions before it.
    - "random_regular": n, d  round-wise pairing of the n*d stubs (Steger and
                              Wormald 1999): each round shuffles the unpaired
                              stubs and keeps every pair that is no loop and
                              no repeat; for d > (n-1)/2 the complement of a
                              random (n-1-d)-regular graph.  Asymptotically
                              uniform (Kim and Vu 2003), not exactly uniform
                              at small n.  Raises if n*d is odd.
    """
    if kind not in _FAMILIES:
        raise ValueError(f"unknown graph kind {kind!r}")
    names = _FAMILIES[kind]
    if set(params) != set(names):
        got = ", ".join(sorted(params)) or "none"
        raise ValueError(f"{kind} takes parameters {', '.join(names)}; got {got}")
    rng = random.Random(seed)
    if kind == "cycle":
        n = params["n"]
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        n = params["n"]
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "complete_bipartite":
        a, b = params["a"], params["b"]
        if a < 0 or b < 0:
            raise ValueError("part sizes must be nonnegative")
        return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if kind == "gnp":
        n, p = params["n"], params["p"]
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        if p == 1:
            return generate("complete", n=n)
        edges = []
        if p:
            # walk the pairs (w, v), w < v, in (v, w) order; each draw skips
            # a geometric number of pairs and keeps the one it lands on
            rand, log, lq = rng.random, math.log, math.log1p(-p)
            cap = n * (n - 1) // 2  # a skip this long passes the last pair
            v, w = 1, -1
            while True:
                skip = log(1.0 - rand()) / lq  # may be inf when p is tiny
                if skip >= cap:
                    break
                w += 1 + int(skip)
                while w >= v:
                    w -= v
                    v += 1
                if v >= n:
                    break
                edges.append((w, v))
        return build_graph(n, edges)
    return _random_regular(params["n"], params["d"], rng)


_REGULAR_TRIES = 2000


def _random_regular(n, d, rng):
    if d < 0 or d >= max(n, 1):
        raise ValueError(f"degree {d} impossible with n={n}")
    if (n * d) % 2:
        raise ValueError(f"n*d must be even, got n={n} d={d}")
    if d and 2 * d > n - 1:
        # n*(n-1-d) has the parity of n*d; dense pairings would mostly repeat edges
        sparse = _random_regular(n, n - 1 - d, rng)
        return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if v not in sparse.adj[u]])
    for _ in range(_REGULAR_TRIES):
        edges = set()
        stubs = [v for v in range(n) for _ in range(d)]
        while stubs:
            rng.shuffle(stubs)
            left = []
            pairs = iter(stubs)
            for u, v in zip(pairs, pairs):
                if u > v:
                    u, v = v, u
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                else:
                    left += (u, v)
            if left and all(e in edges for e in itertools.combinations(sorted(set(left)), 2)):
                break  # no leftover pair could ever be kept: restart
            stubs = left
        else:
            return build_graph(n, edges)
    raise ValueError(f"round-wise pairing failed after {_REGULAR_TRIES} tries (n={n}, d={d})")


def neighborhood_hypergraph(g: Graph) -> Hypergraph:
    """Hypergraph whose i-th edge is the neighborhood of vertex i.

    Isolated vertices contribute empty edges.
    """
    return Hypergraph(n=g.n, edges=tuple(g.adj))


def incidence_graph(h: Hypergraph):
    """Bipartite incidence graph of a hypergraph.

    Vertex-part vertices keep their ids 0..n-1; edge-part vertex n+j stands
    for edge j, joined to each of its members.  Returns (graph, vertex_part,
    edge_part) with both parts as id tuples.
    """
    edges = []
    for j, e in enumerate(h.edges):
        for v in e:
            edges.append((v, h.n + j))
    g = build_graph(h.n + h.m, edges)
    return g, tuple(range(h.n)), tuple(range(h.n, h.n + h.m))


def bipartition(g: Graph):
    """Two-color the vertices by BFS; None if an odd cycle shows up."""
    side = [None] * g.n
    for start in range(g.n):
        if side[start] is not None:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in g.adj[u]:
                if side[w] is None:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    left = frozenset(v for v in range(g.n) if side[v] == 0)
    right = frozenset(v for v in range(g.n) if side[v] == 1)
    return left, right


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def degeneracy(g: Graph) -> int:
    """Max over the min-degree peeling order of the degree at removal time."""
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


def is_k_degenerate(g: Graph, k) -> bool:
    if g.n == 0:
        return True
    return degeneracy(g) <= k
