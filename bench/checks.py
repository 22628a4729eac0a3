"""Output checks written from the definitions, independent of the package.

None of these calls into `dyncolor`: colorings are validated from the
benchmark's own edge lists, exact values are compared with closed forms, and
the cleared-sublist guarantee is re-decided by brute force over color
subsets.  Every check raises CheckFailed with a message naming what broke.
"""

from __future__ import annotations

from itertools import combinations


class CheckFailed(Exception):
    pass


def _fail(msg):
    raise CheckFailed(msg)


def adjacency(n, edges):
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def check_coloring(n, edges, lists, coloring, r):
    """Proper, r-dynamic, and every color taken from the vertex's list."""
    if coloring is None or len(coloring) != n:
        _fail(f"coloring has the wrong length for n={n}")
    for v, c in enumerate(coloring):
        if c not in lists[v]:
            _fail(f"vertex {v} has color {c}, not in its list")
    for u, v in edges:
        if coloring[u] == coloring[v]:
            _fail(f"edge ({u}, {v}) joins two vertices of color {coloring[u]}")
    for v, around in enumerate(adjacency(n, edges)):
        seen = {coloring[u] for u in around}
        if len(seen) < min(r, len(around)):
            _fail(f"vertex {v} sees {len(seen)} colors, needs {min(r, len(around))}")


def check_resample_log(log, n):
    """A cleared log: one ascending, non-empty violation list per sweep."""
    if log.status != "clear":
        _fail(f"resampling ended with status {log.status!r}")
    if log.iterations != len(log.violations_per_sweep):
        _fail(
            f"log counts {log.iterations} iterations "
            f"but records {len(log.violations_per_sweep)} sweeps"
        )
    for i, sweep in enumerate(log.violations_per_sweep):
        if not sweep:
            _fail(f"sweep {i} is empty")
        if any(a >= b for a, b in zip(sweep, sweep[1:])):
            _fail(f"sweep {i} is not strictly ascending")
        if sweep[0] < 0 or sweep[-1] >= n:
            _fail(f"sweep {i} names a vertex outside 0..{n - 1}")


def small_hitting_set(sets, size):
    """Some `size` colors meeting every set, by brute force, or None."""
    colors = sorted(set().union(*sets))
    for pick in combinations(colors, min(size, len(colors))):
        chosen = set(pick)
        if all(chosen & s for s in sets):
            return pick
    return None


def check_cleared(n, edges, sublists, r):
    """No vertex of degree >= r has neighbor sublists hit by r-1 colors."""
    for v, around in enumerate(adjacency(n, edges)):
        if len(around) < r:
            continue
        hit = small_hitting_set([set(sublists[w]) for w in around], r - 1)
        if hit is not None:
            _fail(f"vertex {v}: colors {hit} meet every neighbor sublist")


def chi_dynamic(family, params, r):
    """Closed-form r-dynamic chromatic number, r >= 2.

    K_n: n.  K_{a,b}: min(r, a) + min(r, b) (the two sides share no color
    and each side must show min(r, size) colors to the other).  C_n: every
    vertex has degree 2, so any r >= 2 asks for 2 distinct neighbor colors:
    3 when 3 | n, 5 for n = 5, else 4.
    """
    if r < 2:
        raise ValueError("closed forms are for r >= 2")
    if family == "complete":
        return params["n"]
    if family == "complete_bipartite":
        return min(r, params["a"]) + min(r, params["b"])
    if family == "cycle":
        n = params["n"]
        if n % 3 == 0:
            return 3
        return 5 if n == 5 else 4
    raise KeyError(family)


def choice_number(family, params):
    """Choice number from Erdos-Rubin-Taylor (1979) and degeneracy.

    Even cycles and K_{2,3} are 2-choosable, odd cycles, K_{2,b} for b >= 4
    and K_{3,3} are not; all of these are 2-degenerate or have choice number
    3.  ch(K_n) = n.
    """
    if family == "complete":
        return params["n"]
    if family == "cycle":
        return 2 if params["n"] % 2 == 0 else 3
    if family == "complete_bipartite":
        a, b = sorted((params["a"], params["b"]))
        if a == 1 or (a == 2 and b <= 3):
            return 2
        if a == 2 or (a, b) == (3, 3):
            return 3
    raise KeyError((family, params))


def check_chi(family, params, r, value):
    want = chi_dynamic(family, params, r)
    if value != want:
        _fail(f"chi_{r}({family} {params}) = {value}, closed form gives {want}")


def check_choosable(family, params, k, value):
    want = k >= choice_number(family, params)
    if value is not want:
        _fail(f"{k}-choosable({family} {params}) = {value}, expected {want}")


def _degeneracy(n, edges):
    nbrs = adjacency(n, edges)
    alive = set(range(n))
    worst = 0
    while alive:
        v = min(alive, key=lambda u: len(nbrs[u] & alive))
        worst = max(worst, len(nbrs[v] & alive))
        alive.remove(v)
    return worst


def _two_colorable(n, edges):
    nbrs = adjacency(n, edges)
    side = [None] * n
    for s in range(n):
        if side[s] is None:
            side[s] = 0
            stack = [s]
            while stack:
                u = stack.pop()
                for w in nbrs[u]:
                    if side[w] is None:
                        side[w] = 1 - side[u]
                        stack.append(w)
                    elif side[w] == side[u]:
                        return False
    return True


def check_construction(report, aug_edges, n_aug, r, k):
    """Flags of construction_report, re-derived where they can be.

    aug_edges are the augmented hypergraph's edges: the incidence graph is
    rebuilt from them here, and its bipartiteness and k-degeneracy are
    decided by this module's own code.
    """
    for flag in ("bipartite", "k_degenerate", "lifted_valid"):
        if report[flag] is not True:
            _fail(f"construction report has {flag} = {report[flag]}")
    strong, dynamic = report["strong_chromatic"], report["dynamic_chromatic"]
    if not strong <= dynamic <= strong + r:
        _fail(f"sandwich broken: strong {strong}, dynamic {dynamic}, r {r}")
    if not (report["lower_bound_holds"] and report["upper_bound_holds"]):
        _fail("construction report denies its own sandwich")
    inc = [(v, n_aug + j) for j, e in enumerate(aug_edges) for v in e]
    n_inc = n_aug + len(aug_edges)
    if report["incidence_vertices"] != n_inc or report["incidence_edges"] != len(inc):
        _fail("incidence graph size differs from the augmented hypergraph's")
    if not _two_colorable(n_inc, inc):
        _fail("incidence graph is not bipartite")
    if _degeneracy(n_inc, inc) > k:
        _fail(f"incidence graph is not {k}-degenerate")


def check_simple_graph(n, edges, adj, degree=None):
    """Simple graph on n vertices whose adjacency matches its edge list."""
    if len(adj) != n:
        _fail(f"graph has {len(adj)} adjacency rows, expected {n}")
    pairs = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            _fail(f"edge ({u}, {v}) out of range")
        if u == v:
            _fail(f"self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in pairs:
            _fail(f"repeated edge {key}")
        pairs.add(key)
    if [set(a) for a in adj] != adjacency(n, edges):
        _fail("adjacency does not match the edge list")
    if degree is not None:
        for v, a in enumerate(adj):
            if len(a) != degree:
                _fail(f"vertex {v} has degree {len(a)}, expected {degree}")
