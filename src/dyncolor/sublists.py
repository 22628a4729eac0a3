"""Random sublist selection with resampling, and the coloring pipeline on top.

The route to an r-dynamic list coloring implemented here: draw a uniform
random sublist of each vertex's list, detect "bad" vertices whose neighbor
sublists can all be hit by fewer than r colors, resample around bad vertices
until none remain, then solve an ordinary proper list coloring on the
surviving sublists.  Once no bad vertex remains, any proper coloring from the
sublists is automatically r-dynamic at every vertex of degree >= r: the
neighbor colors form a transversal of the neighbor-sublist hypergraph, and
clearing means no small transversal exists.  The last step is
`solve_list_coloring`'s proper step on the sublists, drawn sorted and
distinct: a first-fit descent (vertices by degree descending, ties by id)
is the exhaustive search's first leaf whenever it does not dead-end;
sublists longer than the maximum degree never dead-end, so then the search
itself does not run.  After a dead end the search runs with forward
checking: a branch ends as soon as an uncolored vertex has every color of
its sublist on its neighborhood.  When a vertex runs out of colors, the
search jumps back to the deepest vertex whose color those failures read
(conflict-directed backjumping), not merely one step.  The cut and the
jumps remove only branches without a proper coloring, so the coloring is
the one the plain search would find.

The resampling loop follows Moser and Tardos: the bad event at v reads only
the sublists of N(v), so after redrawing the sublists of N(c) it rechecks
just the vertices within distance 2 of c and keeps the set of bad vertices
up to date.  Each check decides "fewer than r colors meet every neighbor
sublist" directly by the transversal module's depth-bounded hitting-set
search, on one int bitset per sublist: each color gets a bit of its own the
first time a sublist holds it, so colors may be any orderable values, and
only the masks of redrawn sublists are rebuilt.  At r = 2 that search is a
single running AND of the neighbor masks, written out in the loop.  At
r = 3, where nearly every check answers "not bad", the two colors are
forced sides: one lies in the first neighbor sublist, the other in every
neighbor sublist that misses it, so one AND over those sublists, and one
more for the first color, ends most checks without branching.  From r = 4
on the search first packs: one greedy pass from the first neighbor sublist
keeps the sublists disjoint from those kept so far, and r pairwise-disjoint
ones need r distinct colors.  Every drawn sublist has sublist_size colors,
so the first neighbor sublist is a smallest one, the one the search
branches on, and the masks need no sort.  The candidate family of the
transversal module is not built on this path.

Every draw is that of Random.sample, sorted.  Each call that draws
(`sample_sublists`, `resample_until_clear` and the experiments'
`random_list_assignment`) builds one sampler, `_sorted_sampler`, which
works out Random.sample's choice between its pool and set branches and the
tries of each list length once, not once per draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .coloring import _check_len, _check_r, _check_slack, _is_color, _normalize_lists
from .coloring import _Sorted, _proper_list_coloring, is_r_dynamic
from .graphs import Graph, Hypergraph, degree_stats
from .transversal import _hit_by_at_most, _mask


@dataclass
class SublistState:
    """Base lists plus the currently drawn sublists and the rng that drew them.

    r and slack (base size = sublist_size + slack + r - 2) stay None without r.
    base holds normalized lists, as `sample_sublists` makes them; the
    sampler marks its redraws from base as normalized, so a state built by
    hand must hold normalized lists too.
    """

    base: list
    sublists: list
    sublist_size: int
    seed: int
    rng: random.Random = field(repr=False)
    draws: int = 0
    r: int | None = None
    slack: int | None = None


@dataclass(frozen=True)
class ResampleLog:
    iterations: int
    violations_per_sweep: tuple
    status: str  # "clear" or "cap_reached"

    def to_json_dict(self):
        return {
            "iterations": self.iterations,
            "violations_per_sweep": [list(sweep) for sweep in self.violations_per_sweep],
            "status": self.status,
        }


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of the sublist pipeline.

    coloring is None unless status is "ok".  status is one of "ok",
    "cap_reached" (resampling never cleared), "list_coloring_failed" (the
    sublists cleared but admit no proper coloring, i.e. the sublist size is
    below the graph's choosability).
    """

    coloring: list | None
    log: ResampleLog
    status: str


def _sorted_sampler(rng, k):
    """draw(population) = tuple(sorted(rng.sample(population, k))), from the same draws.

    Each draw leaves rng in the state rng.sample would.  The pool branch of
    Random.sample is inlined: the drawn item swaps with the last live slot,
    so the last k slots hold the sample.  Its set-branch threshold and the
    tries (m, m.bit_length(), m - 1: the live slots, the bits to draw and the
    last live slot) of each population size are worked out once per
    sampler; the set branch, subclasses of Random and an invalid k use
    rng.sample.  Its callers draw from normalized lists or from distinct
    ints, and Random.sample picks k distinct positions in both branches, so
    every draw of a `random.Random` is a `_Sorted` list, which
    `_normalize_lists` passes through unchecked.  A subclass of Random gets
    plain tuples, which it rebuilds: its sample may repeat items.
    """
    if type(rng) is not random.Random:
        return lambda population: tuple(sorted(rng.sample(population, k)))
    # Random.sample's threshold between its pool and its set branch
    setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    getrandbits = rng.getrandbits
    tries = {}  # population size -> its tries, or None where rng.sample draws

    def draw(population):
        n = len(population)
        if n not in tries:
            inline = 0 <= k <= n <= setsize
            tries[n] = [(m, m.bit_length(), m - 1) for m in range(n, n - k, -1)] if inline else None
        steps = tries[n]
        if steps is None:
            return _Sorted(sorted(rng.sample(population, k)))
        pool = list(population)
        for m, bits, last in steps:
            # one getrandbits call per try, as Random._randbelow makes them
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            pool[j], pool[last] = pool[last], pool[j]
        out = pool[n - k:]
        out.sort()
        return _Sorted(out)

    return draw


def _list_sizes(r, sublist_size, slack=None, lists=None, max_degree=None):
    """(sublist_size, slack, floor) by the rule floor = sublist + slack + r - 2.

    Checks a given sublist size >= 1, r >= 2, slack >= r - 1 and every list
    against the floor.  A missing slack is what the uniform base size of
    lists leaves beside a given sublist size, else r - 1; a missing sublist
    size is max_degree + 1 (first-fit never dead-ends there) capped by what
    the base size leaves at that slack, or None with neither.
    """
    if sublist_size is not None:
        _check_r(sublist_size, 1, "sublist size")
    base = None
    if lists and None in (slack, sublist_size):
        sizes = {len(t) for t in lists}
        if len(sizes) != 1:
            raise ValueError(f"base list sizes are not uniform: {min(sizes)} to {max(sizes)}")
        base = sizes.pop()
    if slack is None:
        slack = r - 1 if base is None or sublist_size is None else base - sublist_size - r + 2
    _check_slack(slack, r)
    if sublist_size is None and base is not None:
        room = base - slack - r + 2
        if room < 1:
            raise ValueError(f"base list size {base} leaves no sublist at r = {r}, slack {slack}")
        sublist_size = room if max_degree is None else min(room, max_degree + 1)
    elif sublist_size is None and max_degree is not None:
        sublist_size = max_degree + 1
    floor = None if sublist_size is None else sublist_size + slack + r - 2
    for v, t in enumerate(lists or ()):  # with lists, the sublist size is known by now
        if len(t) < floor:
            need = f"{floor} (sublist {sublist_size} + slack {slack} + r - 2)"
            raise ValueError(f"list at vertex {v} has {len(t)} colors, needs >= {need}")
    return sublist_size, slack, floor


def sample_sublists(lists, sublist_size, seed, r=None, slack=None) -> SublistState:
    """Draw a uniform random sublist of each list, independently per vertex.

    Reproducible: the same (lists, sublist_size, seed) give the same draw,
    and the draws are those of Random(seed).sample on each list in turn.
    Passing r (>= 2) arms the state for bad-event checks; the slack, derived
    from uniform base sizes when not given, must be >= r - 1, and every list
    must hold sublist_size + slack + r - 2 colors.
    """
    _check_r(sublist_size, 1, "sublist size")
    base = _normalize_lists(len(lists), lists, floor=sublist_size)
    if r is not None:
        slack = _list_sizes(r, sublist_size, slack, base)[1]
    elif slack is not None:
        raise ValueError("slack without r is meaningless")
    rng = random.Random(seed)
    draw = _sorted_sampler(rng, sublist_size)
    sub = [draw(t) for t in base]
    return SublistState(
        base=base,
        sublists=sub,
        sublist_size=sublist_size,
        seed=seed,
        rng=rng,
        draws=len(base),
        r=r,
        slack=slack,
    )


def _check_vertex(g, v):
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")


def neighborhood_color_hypergraph(g: Graph, assignment, v) -> Hypergraph:
    """Hypergraph whose edges are the color lists of v's neighbors.

    Vertex ids are the color values themselves (universe 0..max color, 0
    when every list is empty), one edge per neighbor in ascending neighbor
    order, duplicates kept.  So each color on a neighbor's list must be a
    non-negative int, by the rule of `parse_lists`.
    """
    _check_len(g.n, assignment, "list assignment")
    _check_vertex(g, v)
    if g.degree(v) == 0:
        raise ValueError(f"vertex {v} is isolated; neighborhood hypergraph undefined")
    edges = []
    for w in g.adj[v]:
        for c in assignment[w]:
            if not _is_color(c):
                raise ValueError(f"list for vertex {w} has a bad color {c!r}")
        edges.append(frozenset(assignment[w]))
    top = max((max(e) for e in edges if e), default=-1)
    return Hypergraph(n=top + 1, edges=tuple(edges))


def _check_state(g, state):
    """The state is armed with r and holds one sublist per vertex of g."""
    if state.r is None:
        raise ValueError("state has no r; sample with r= to enable event checks")
    _check_len(g.n, state.sublists, "list assignment")


def bad_event_holds(g: Graph, state: SublistState, v) -> bool:
    """True when fewer than r colors can meet every neighbor sublist of v.

    The transversal module's search decides it on the neighbor sublists'
    masks, seeded by the first.  Drawn sublists all have sublist_size
    colors, so that seed is a smallest sublist; on a state built by hand
    with sublists of mixed sizes the answer is the same, only the
    branching may be wider.
    """
    _check_state(g, state)
    _check_vertex(g, v)
    if g.degree(v) < state.r:
        raise ValueError(f"vertex {v} has degree {g.degree(v)} < r = {state.r}")
    bits = {}
    return _hit_by_at_most([_mask(state.sublists[w], bits) for w in g.adj[v]], state.r - 1)


def default_max_iters(g: Graph, r) -> int:
    return math.ceil(10 * g.n * (r - 1) * math.log(max(max(map(len, g.adj), default=0), 2)))


def resample_until_clear(g: Graph, state: SublistState, max_iters=None):
    """Resample neighbor sublists around bad vertices until none remain.

    A sweep is the set of vertices of degree >= r whose bad event currently
    holds; each sweep redraws the sublists of its smallest vertex's neighbors
    (the variables its event reads), in ascending neighbor order, and counts
    as one iteration.  Every eligible vertex is checked once at the start;
    after a resample at centre c only the eligible vertices in the union of
    N(w) over w in N(c) are rechecked, since no other event reads a redrawn
    sublist.  The sweeps, draws and sublists are those of rechecking every
    vertex after every resample.  Stops with status "clear" or, after
    max_iters resamples, "cap_reached".  Returns (state, log); the state is
    updated in place.
    """
    _check_state(g, state)
    r = state.r
    if max_iters is None:
        max_iters = default_max_iters(g, r)
    _check_r(max_iters, 0, "max_iters")
    adj = g.adj
    eligible = [len(nbrs) >= r for nbrs in adj]
    base, sublists = state.base, state.sublists
    draw = _sorted_sampler(state.rng, state.sublist_size)
    bits = {}
    masks = [_mask(sub, bits) for sub in sublists]
    violated = set()
    touched = range(g.n)
    sweeps = []
    while True:
        for v in touched:
            if not eligible[v]:
                continue
            if r == 2:
                # _hit_by_at_most(neighbor masks, 1) inlined, its k = 1 case:
                # bad when one color meets every neighbor sublist
                hit = -1
                for w in adj[v]:
                    hit &= masks[w]
                    if not hit:
                        break
            else:
                hit = _hit_by_at_most([masks[w] for w in adj[v]], r - 1)
            if hit:
                violated.add(v)
            else:
                violated.discard(v)
        if not violated:
            status = "clear"
            break
        if len(sweeps) >= max_iters:
            status = "cap_reached"
            break
        sweep = tuple(sorted(violated))
        sweeps.append(sweep)
        centre = sweep[0]
        touched = set()
        for w in adj[centre]:
            sub = sublists[w] = draw(base[w])
            masks[w] = _mask(sub, bits)
            touched.update(adj[w])
        state.draws += len(adj[centre])
    log = ResampleLog(
        iterations=len(sweeps),
        violations_per_sweep=tuple(sweeps),
        status=status,
    )
    return state, log


def dynamic_coloring_via_sublists(
    g: Graph, lists, sublist_size, r, seed, max_iters=None
) -> PipelineResult:
    """Full pipeline: sample, resample until clear, then proper-list-color.

    Base lists must share one size, sublist_size + slack + r - 2 with a
    slack >= r - 1, and every vertex needs degree >= r.  On status "ok" the
    coloring is proper and r-dynamic (re-checked internally; a checker
    failure would be a bug and raises).  The empty graph has no list to
    size, so there sublist_size may be None.
    """
    _check_r(r, 2)
    _check_len(g.n, lists, "list assignment")
    if g.n == 0:
        _list_sizes(r, sublist_size, lists=lists)  # no list to size; a given size is checked
        log = ResampleLog(iterations=0, violations_per_sweep=(), status="clear")
        return PipelineResult(coloring=[], log=log, status="ok")
    min_degree = degree_stats(g).min_degree
    if min_degree < r:
        raise ValueError(f"minimum degree {min_degree} below r = {r}")
    state = sample_sublists(lists, sublist_size, seed, r=r)
    state, log = resample_until_clear(g, state, max_iters)
    if log.status != "clear":
        return PipelineResult(coloring=None, log=log, status="cap_reached")
    coloring = _proper_list_coloring(g, state.sublists)
    if coloring is None:
        return PipelineResult(coloring=None, log=log, status="list_coloring_failed")
    if not is_r_dynamic(g, coloring, r):
        raise AssertionError(
            "cleared sublists produced a non-dynamic proper coloring; "
            "this contradicts the clearing guarantee and is a bug"
        )
    return PipelineResult(coloring=coloring, log=log, status="ok")
