"""Small transversals: a direct decision and the paper's candidate family.

A transversal is a vertex set meeting every edge.  has_small_transversal
decides whether one of size at most r exists, on any hypergraph, with
_hit_by_at_most: a depth-bounded search that branches on the bits of its
seed, the first edge, and stops at the first transversal (the d-Hitting-Set
search tree, as in Niedermeier and Rossmanith 2003).  has_small_transversal
sorts the edges by size once, so the seed is a smallest edge at every level.
With two picks left both are forced, so two running ANDs refute most pairs
before any branching; from three picks on, each level first packs greedily
from the seed, and k + 1 pairwise-disjoint edges refute a k-transversal,
since a packing is never larger than a transversal.  The search reads each
edge as a Python int used as a bitset, built by _mask: each vertex id (or,
for the sublist bad-event check, each color) gets the next free bit the
first time it is seen, so the ints stay as wide as the number of distinct
ids, whatever their values.  Dropping the edges a pick meets and
intersecting the rest are then single int operations.

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

    The d-Hitting-Set search tree: some bit of the seed, masks[0], must be
    picked, so branch on each of them and drop the masks it meets.  Callers
    pass a smallest mask first (has_small_transversal sorts by bit count,
    and the filtered lists below keep that order), so the branching stays
    on the narrowest mask; any order gives the same answer.  One pick left
    means the remaining masks share a bit, so the last level is a running
    AND that stops as soon as it is 0.

    Two picks left, a and b with a in the seed s, every side is forced:
    b lies in every mask missing s, so B is their AND (all bits when none
    misses s); a lies in s and in every mask missing B, so A is that AND;
    and a bit a of A works when B meets every mask missing a.  Each AND
    stops as soon as it is 0, which refutes a pair without branching.
    Two masks disjoint from s and from each other already make B = 0.

    From three picks on, each level first packs: one greedy pass, seeded
    with s, keeps every mask disjoint from the union of those kept so far.
    Pairwise-disjoint masks need a pick each, so k + 1 of them answer False
    before any branching.  Depth is at most k and the search stops at the
    first transversal found; no candidate family is built.  An empty mask
    (0) is met by nothing.  Build masks with _mask.
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
    seed = masks[0]
    if k == 2:
        side_b = -1
        for m in masks:
            if not m & seed:
                side_b &= m
                if not side_b:
                    return False
        side_a = seed
        for m in masks:
            if not m & side_b:
                side_a &= m
                if not side_a:
                    return False
        while side_a:
            bit = side_a & -side_a
            side_a ^= bit
            # the k == 1 case on the masks missing bit, without building them
            common = side_b
            for m in masks:
                if not m & bit:
                    common &= m
                    if not common:
                        break
            if common:
                return True
        return False
    union, packed = seed, 0
    for m in masks:
        if not m & union:
            packed += 1
            if packed == k:  # with the seed, k + 1 disjoint masks
                return False
            union |= m
    while seed:
        bit = seed & -seed
        seed ^= bit
        if _hit_by_at_most([m for m in masks if not m & bit], k - 1):
            return True
    return False


def has_small_transversal(h: Hypergraph, r) -> bool:
    """Decide whether a transversal of size at most r exists, on any hypergraph.

    The edges' masks go to _hit_by_at_most sorted by size (a stable sort),
    so its seed, the first mask, is a smallest edge: seeding with a large
    edge would branch on many bits where a small one branches on few.
    """
    _check_r(r, 0)
    bits = {}
    return _hit_by_at_most(sorted([_mask(e, bits) for e in h.edges], key=int.bit_count), r)
