"""Seeded instance builders and the text forms the program parses.

Everything here is the benchmark's own code: graphs for the resampling and
exact workloads are built without the package's generators, so a change to
`dyncolor.graphs.generate` cannot change what those workloads solve.  The
texts use the package's documented formats (1-indexed `p edge` graphs, `h`
hypergraphs, JSON list assignments keyed by 0-indexed vertex), and the
readers here turn them back into the benchmark's edge and list form.
"""

from __future__ import annotations

import json
import random


def workload_rng(workload, seed):
    """One independent, reproducible stream per (workload, seed)."""
    return random.Random(f"bench/{workload}/{seed}/")


def regular_edges(n, d, rng):
    """Random simple d-regular graph on n vertices, as a sorted edge list.

    Starts from a circulant graph (offsets 1..d//2, plus the antipodal
    matching when d is odd) and applies random double-edge switches, each
    kept only when it creates no loop and no repeated edge.  Unlike the
    pairing model this never rejects a whole graph, so it reaches dense
    degrees such as d=8 at n=40.  Ten switches per edge are tried.
    """
    if not 0 <= d < n or (n * d) % 2:
        raise ValueError(f"no simple {d}-regular graph on {n} vertices")
    edges = set()
    for v in range(n):
        for off in range(1, d // 2 + 1):
            edges.add(_pair(v, (v + off) % n))
        if d % 2:
            edges.add(_pair(v, (v + n // 2) % n))
    edge_list = sorted(edges)
    for _ in range(10 * len(edge_list)):
        i, j = rng.randrange(len(edge_list)), rng.randrange(len(edge_list))
        (a, b), (c, e) = edge_list[i], edge_list[j]
        if rng.random() < 0.5:
            c, e = e, c
        new1, new2 = _pair(a, c), _pair(b, e)
        if a == c or b == e or new1 in edges or new2 in edges:
            continue
        edges -= {edge_list[i], edge_list[j]}
        edges |= {new1, new2}
        edge_list[i], edge_list[j] = new1, new2
    return sorted(edges)


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_bipartite_edges(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)]


def cycle_edges(n):
    return [_pair(i, (i + 1) % n) for i in range(n)]


def relabel(n, edges, rng):
    """The same graph under a random vertex permutation (search order moves)."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(_pair(perm[u], perm[v]) for u, v in edges)


def random_lists(n, size, universe, rng):
    """n independent uniform size-subsets of {1..universe}, sorted."""
    pool = range(1, universe + 1)
    return [sorted(rng.sample(pool, size)) for _ in range(n)]


def uniform_hypergraph_edges(n, size, m, rng):
    """m distinct random size-subsets of range(n), each as a sorted tuple."""
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), size))))
    return sorted(edges)


def graph_text(n, edges):
    lines = ["c bench instance", f"p edge {n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def hypergraph_text(n, edges):
    lines = [f"h {n} {len(edges)}"]
    lines.extend(" ".join(str(v + 1) for v in e) for e in edges)
    return "\n".join(lines) + "\n"


def lists_text(lists):
    return json.dumps({str(v): list(colors) for v, colors in enumerate(lists)})


def read_graph_text(text):
    """The edges of a `graph_text`, 0-indexed, in the order written."""
    edges = []
    for line in text.splitlines():
        fields = line.split()
        if fields[0] == "e":
            edges.append((int(fields[1]) - 1, int(fields[2]) - 1))
    return edges


def read_lists_text(text, n):
    lists = json.loads(text)
    return [lists[str(v)] for v in range(n)]
