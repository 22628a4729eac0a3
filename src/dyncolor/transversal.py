"""Small transversals: a direct decision and the paper's candidate family.

A transversal is a vertex set meeting every edge.  has_small_transversal
decides whether one of size at most r exists, on any hypergraph, with
_hit_by_at_most: a depth-bounded search that branches on a smallest edge and
stops at the first transversal (the d-Hitting-Set search tree, as in
Niedermeier and Rossmanith 2003).  From two picks on, each level first packs
greedily: starting from that smallest edge, it keeps every edge disjoint
from those kept so far, and k + 1 pairwise-disjoint edges refute a
k-transversal without any branching, since a packing is never larger than
a transversal.  The search reads each edge as a Python int used as a
bitset, built by _mask: each vertex id (or, for the sublist bad-event check,
each color) gets the next free bit the first time it is seen, so the ints
stay as wide as the number of distinct ids, whatever their values.  Dropping the edges a pick meets and intersecting the rest are then
single int operations.

candidate_family, the paper's constructive object and the tests' reference,
builds for a target size r at most k^r size-r sets (k = largest edge) such
that a size-r transversal exists iff some member is one.  Branching is on the
lowest-index edge; recursing on vertex v removes v and every edge containing
v (the surviving edges are exactly the ones the rest must cover).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import _check_r
from .graphs import Hypergraph


@dataclass(frozen=True)
class CandidateFamily:
    r: int
    sets: tuple[frozenset[int], ...]

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)


def is_transversal(h: Hypergraph, subset) -> bool:
    """True when subset meets every edge (vacuously true with no edges)."""
    s = frozenset(subset)
    return all(s & e for e in h.edges)


def candidate_family(h: Hypergraph, r) -> CandidateFamily:
    """Candidate size-r transversals of h, deduplicated and sorted.

    Guarantees: every member has size exactly r, and some member is a
    transversal iff a size-r transversal exists.  Non-transversal members can
    occur (the last pick only branches over one edge), so deciding requires
    checking membership candidates, not mere nonemptiness.  An empty edge
    kills all branches (nothing can meet it), and once no edges remain any r
    of the unpicked vertices do the job (the smallest ids are kept as the
    canonical representative).

    Cost: O(k^(r-1) (m + kr)) set operations (k = largest edge), whatever h.n.
    """
    _check_r(r, 1)
    if h.m == 0:
        raise ValueError("candidate_family needs at least one edge")

    def recurse(edges, picked, depth):
        if not edges:  # r - depth ids are picked, so the smallest free ones are below r
            if h.n >= r:
                return {frozenset([v for v in range(r) if v not in picked][:depth])}
            return set()
        if any(not e for e in edges):
            return set()
        first = edges[0]
        if depth == 1:
            return {frozenset([v]) for v in first}
        found = set()
        for v in sorted(first):
            rest = tuple(e for e in edges if v not in e)
            for partial in recurse(rest, picked | {v}, depth - 1):
                found.add(partial | {v})
        return found

    members = recurse(h.edges, frozenset(), r)
    ordered = tuple(sorted(members, key=sorted))
    return CandidateFamily(r=r, sets=ordered)


def _mask(items, bits) -> int:
    """items as an int bitset, with bits mapping each item to its bit.

    An item seen for the first time gets the next free bit, so items may be
    any hashable values and no mask depends on what they are: the kernel's
    bits are numbered densely whatever the vertex ids or colors.
    """
    mask = 0
    for x in items:
        bit = bits.get(x)
        if bit is None:
            bit = bits[x] = 1 << len(bits)
        mask |= bit
    return mask


def _hit_by_at_most(masks, k) -> bool:
    """True when at most k bits meet every mask in masks (ints as bitsets).

    The d-Hitting-Set search tree: some bit of a smallest mask must be
    picked, so branch on each of them and drop the masks it meets.  One pick
    left means the remaining masks share a bit, so the last level is a
    running AND that stops as soon as it is 0.

    From two picks on, each level first packs: one greedy pass, seeded with
    the smallest mask, keeps every mask disjoint from the union of those
    kept so far.  Pairwise-disjoint masks need a pick each, so k + 1 of them
    answer False before any branching.  The seed is a smallest mask so that,
    when the packing falls short, the branching stays on the narrowest mask,
    also when masks differ in size.  At k = 2 a transversal takes one bit of
    the smallest mask and one of the second mask kept, which every first
    pick misses, so the running AND that decides the second pick starts
    from that mask instead of all bits, and reaches 0 sooner.  That AND is
    inlined into the branching loop, saving a filtered list and a call per
    branch; recursing instead made lll_dense operations about a third
    slower.  Depth is at most k and the search stops at the first
    transversal found; no candidate family is built.  An empty mask (0) is
    met by nothing.  Build masks with _mask.
    """
    if not masks:
        return True
    if k == 0:
        return False
    if k == 1:
        common = -1
        for m in masks:
            common &= m
            if not common:
                return False
        return True
    smallest = min(masks, key=int.bit_count)
    union, packed = smallest, []
    for m in masks:
        if not m & union:
            packed.append(m)
            if len(packed) == k:  # with smallest, k + 1 disjoint masks
                return False
            union |= m
    start = packed[0] if packed else -1
    while smallest:
        bit = smallest & -smallest
        smallest ^= bit
        if k == 2:
            # the k == 1 case on the masks missing bit, without building them
            common = start
            for m in masks:
                if not m & bit:
                    common &= m
                    if not common:
                        break
            if common:
                return True
        elif _hit_by_at_most([m for m in masks if not m & bit], k - 1):
            return True
    return False


def has_small_transversal(h: Hypergraph, r) -> bool:
    """Decide whether a transversal of size at most r exists, on any hypergraph."""
    _check_r(r, 0)
    bits = {}
    return _hit_by_at_most([_mask(e, bits) for e in h.edges], r)
