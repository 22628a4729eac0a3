"""Augmented hypergraphs whose incidence graphs separate dynamic from strong coloring.

Starting from a (k-r+2)-uniform hypergraph, every edge is enlarged by a core
of r-2 shared new vertices (making the edges k-uniform), the vertex set is
padded to a multiple of k, and r pairwise edge-disjoint partitions of the
vertices into k-blocks are appended as extra edges.  On the incidence graph
of the result, any r-strong coloring of the vertex part lifts to an
r-dynamic coloring using r extra colors, which sandwiches the r-dynamic
chromatic number of the incidence graph between the r-strong chromatic
number of the hypergraph and that value plus r.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .coloring import _check_cap, _check_r, _least_k, chi_exact, is_r_dynamic, is_r_strong
from .graphs import Hypergraph, incidence_graph, is_bipartite, is_k_degenerate

_PARTITION_TRIES = 1000


@dataclass(frozen=True)
class AugmentedHypergraph:
    base: Hypergraph
    hyper: Hypergraph
    core: tuple[int, ...]
    r: int
    k: int
    matchings: tuple[tuple[int, ...], ...]  # edge indices of each partition

    def edge_label(self, j):
        """("base", index) for original edges, ("matching", i) for partition i (1-based)."""
        if 0 <= j < self.base.m:
            return ("base", j)
        for i, idxs in enumerate(self.matchings, start=1):
            if j in idxs:
                return ("matching", i)
        raise IndexError(f"edge index {j} out of range")


def augment(h: Hypergraph, r, k, seed) -> AugmentedHypergraph:
    """Core-extend h to k-uniformity and append r disjoint vertex partitions.

    Requires k >= r >= 2 and every edge of h of size exactly k - r + 2.
    Partitions are drawn by seeded shuffling, rejecting any that repeats an
    already-used block; impossibility (e.g. a single-block universe cannot
    host two distinct partitions) raises after _PARTITION_TRIES draws.
    """
    _check_r(r, 2)
    if k < r:
        raise ValueError(f"k must be >= r, got k={k} r={r}")
    if h.n < 1:
        raise ValueError("base hypergraph needs at least one vertex")
    want = k - r + 2
    for j, e in enumerate(h.edges):
        if len(e) != want:
            raise ValueError(
                f"edge {j} has size {len(e)}, need uniform size k-r+2 = {want}"
            )
    core = tuple(range(h.n, h.n + r - 2))
    padded = h.n + len(core)
    padded = ((padded + k - 1) // k) * k
    edges = [e | frozenset(core) for e in h.edges]

    rng = random.Random(seed)
    used = set()
    matchings = []
    for i in range(r):
        for _ in range(_PARTITION_TRIES):
            perm = list(range(padded))
            rng.shuffle(perm)
            blocks = [frozenset(perm[j : j + k]) for j in range(0, padded, k)]
            if used.isdisjoint(blocks):
                break
        else:
            raise ValueError(
                f"could not draw partition {i + 1} of {r} with unused blocks "
                f"after {_PARTITION_TRIES} tries (padded n={padded}, k={k})"
            )
        used.update(blocks)
        matchings.append(tuple(range(len(edges), len(edges) + len(blocks))))
        edges.extend(blocks)
    return AugmentedHypergraph(
        base=h,
        hyper=Hypergraph(n=padded, edges=tuple(edges)),
        core=core,
        r=r,
        k=k,
        matchings=tuple(matchings),
    )


def lift_coloring(aug: AugmentedHypergraph, f, alphas):
    """Extend an r-strong coloring of the vertex part to the incidence graph.

    Edge-part vertices take alphas[i-1] when the edge belongs to partition i
    and alphas[r-1] when it is a base edge.  Requires f r-strong on the
    augmented hypergraph and the alphas to be r distinct colors outside f's
    range; the result is checked r-dynamic (a failure would falsify the
    construction and raises).
    """
    r = aug.r
    if not is_r_strong(aug.hyper, f, r):
        raise ValueError("f is not r-strong on the augmented hypergraph")
    alphas = tuple(alphas)
    if len(alphas) != r or len(set(alphas)) != r:
        raise ValueError(f"need r = {r} distinct fresh colors, got {alphas}")
    if set(alphas) & set(f):
        raise ValueError("fresh colors overlap the range of f")
    g, _, _ = incidence_graph(aug.hyper)
    lifted = list(f) + [alphas[r - 1]] * aug.base.m
    for i, idxs in enumerate(aug.matchings):  # the partitions' edges follow the base edges in order
        lifted += [alphas[i]] * len(idxs)
    if not is_r_dynamic(g, lifted, r):
        raise AssertionError(
            "lifted coloring failed the dynamic check; the construction "
            "guarantees it, so this is a bug"
        )
    return lifted


def construction_report(h: Hypergraph, r, k, seed, max_n=12):
    """Build the augmented instance and verify its exact sandwich numerically.

    Returns a JSON-ready dict with bipartiteness and k-degeneracy of the
    incidence graph, the exact r-strong chromatic number of the augmented
    hypergraph, the exact r-dynamic chromatic number of the incidence graph,
    the validity and color count of the lifted coloring, and the two
    comparisons strong <= dynamic and dynamic <= strong + r.  The lifted
    coloring starts from the r-strong coloring that the least-k search ends
    on.  max_n guards both exact searches, and both sizes are checked before
    either runs: the augmented hypergraph's first, then the incidence graph's,
    the larger instance.
    """
    aug = augment(h, r, k, seed)
    g = incidence_graph(aug.hyper)[0]
    _check_cap(aug.hyper.n, max_n)
    _check_cap(g.n, max_n)
    strong, f = _least_k(aug.hyper, "strong", r, max_n)
    alphas = tuple(range(strong + 1, strong + r + 1))
    lifted = lift_coloring(aug, f, alphas)  # raises unless r-dynamic on g
    dynamic = chi_exact(g, mode="dynamic", r=r, max_n=max_n)
    return {
        "base_vertices": h.n,
        "base_edges": h.m,
        "r": r,
        "k": k,
        "seed": seed,
        "augmented_vertices": aug.hyper.n,
        "augmented_edges": aug.hyper.m,
        "incidence_vertices": g.n,
        "incidence_edges": g.m,
        "bipartite": is_bipartite(g),
        "k_degenerate": is_k_degenerate(g, k),
        "strong_chromatic": strong,
        "dynamic_chromatic": dynamic,
        "lifted_valid": True,
        "lifted_colors_used": len(set(lifted)),
        "lower_bound_holds": dynamic >= strong,
        "upper_bound_holds": dynamic <= strong + r,
    }
