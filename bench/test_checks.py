"""Self-tests for the benchmark's checkers and closed-form tables.

Run from the repository root with either of

    python3 -m unittest discover -s bench -p "test_*.py"
    python3 -m pytest bench

Each checker must reject a corrupted output, and the closed forms must agree
with brute-force product search at sizes where that search is instant.
"""

from __future__ import annotations

import itertools
import random
import unittest
from dataclasses import dataclass

import checks
from instances import (
    complete_bipartite_edges,
    complete_edges,
    cycle_edges,
    regular_edges,
    relabel,
)
from workloads import family_edges


def valid(n, edges, coloring, r):
    if any(coloring[u] == coloring[v] for u, v in edges):
        return False
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return all(len({coloring[u] for u in nbrs[v]}) >= min(r, len(nbrs[v])) for v in range(n))


def brute_chi(n, edges, r):
    for k in range(1, n + 1):
        if any(valid(n, edges, c, r) for c in itertools.product(range(k), repeat=n)):
            return k
    raise AssertionError("n colors always suffice")


def brute_choosable(n, edges, k):
    """Every k-list assignment, up to renaming colors, is properly colorable.

    Colors are introduced in first-use order (a list takes some old colors
    and the next unused integers), one assignment per renaming class.
    """

    def assignments(i, used, acc):
        if i == n:
            yield acc
            return
        for old in range(k + 1):
            fresh = tuple(range(used, used + k - old))
            for olds in itertools.combinations(range(used), old):
                yield from assignments(i + 1, used + k - old, acc + [olds + fresh])

    return all(
        any(valid(n, edges, c, 0) for c in itertools.product(*lists))
        for lists in assignments(0, 0, [])
    )


@dataclass
class Log:
    iterations: int
    violations_per_sweep: tuple
    status: str = "clear"


class ClosedForms(unittest.TestCase):
    def test_chi_against_product_search(self):
        cases = [("complete", {"n": n}) for n in (2, 3, 4)]
        cases += [("complete_bipartite", {"a": a, "b": b}) for a, b in ((1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (2, 4))]
        cases += [("cycle", {"n": n}) for n in range(3, 9)]
        for family, params in cases:
            n, edges = family_edges(family, params)
            for r in (2, 3):
                with self.subTest(family=family, params=params, r=r):
                    self.assertEqual(checks.chi_dynamic(family, params, r), brute_chi(n, edges, r))

    def test_choice_number_against_enumeration(self):
        cases = [
            ("cycle", {"n": 3}, (2, 3)),
            ("cycle", {"n": 4}, (2,)),
            ("cycle", {"n": 5}, (2, 3)),
            ("cycle", {"n": 6}, (2,)),
            ("complete", {"n": 3}, (2, 3)),
            ("complete", {"n": 4}, (3,)),
            ("complete_bipartite", {"a": 1, "b": 3}, (2,)),
            ("complete_bipartite", {"a": 2, "b": 3}, (2,)),
            ("complete_bipartite", {"a": 2, "b": 4}, (2,)),
            ("complete_bipartite", {"a": 3, "b": 3}, (2,)),
        ]
        for family, params, ks in cases:
            n, edges = family_edges(family, params)
            for k in ks:
                with self.subTest(family=family, params=params, k=k):
                    want = k >= checks.choice_number(family, params)
                    self.assertEqual(want, brute_choosable(n, edges, k))


class Rejections(unittest.TestCase):
    def setUp(self):
        self.n, self.edges = 6, cycle_edges(6)
        self.lists = [[1, 2, 3]] * 6
        self.good = [1, 2, 3, 1, 2, 3]

    def test_coloring(self):
        checks.check_coloring(self.n, self.edges, self.lists, self.good, 2)
        corrupt = {
            "improper": [1, 1, 3, 1, 2, 3],
            "off-list": [1, 2, 4, 1, 2, 3],
            "not dynamic": [1, 2, 1, 2, 1, 2],
            "short": [1, 2, 3],
        }
        for why, coloring in corrupt.items():
            with self.subTest(why), self.assertRaises(checks.CheckFailed):
                checks.check_coloring(self.n, self.edges, self.lists, coloring, 2)

    def test_wrong_chi_and_choosability(self):
        checks.check_chi("cycle", {"n": 6}, 2, 3)
        with self.assertRaises(checks.CheckFailed):
            checks.check_chi("cycle", {"n": 6}, 2, 4)
        with self.assertRaises(checks.CheckFailed):
            checks.check_chi("complete_bipartite", {"a": 4, "b": 4}, 3, 7)
        checks.check_choosable("complete_bipartite", {"a": 2, "b": 3}, 2, True)
        with self.assertRaises(checks.CheckFailed):
            checks.check_choosable("complete_bipartite", {"a": 3, "b": 3}, 2, True)
        with self.assertRaises(checks.CheckFailed):
            checks.check_choosable("complete", {"n": 4}, 4, False)

    def test_uncleared_sublists(self):
        # C_6, r = 2: below, vertex 0 sees 1 and 5, whose sublists share 9
        n, edges = 6, cycle_edges(6)
        cleared = [[1, 2], [3, 4], [5, 6], [7, 8], [3, 4], [5, 6]]
        checks.check_cleared(n, edges, cleared, 2)
        with self.assertRaises(checks.CheckFailed):
            checks.check_cleared(n, edges, [[1, 2], [3, 9], [5, 6], [7, 8], [1, 3], [5, 9]], 2)
        # K_4, r = 3: colors {1, 2} meet all three neighbor sublists of 0
        n, edges = 4, complete_edges(4)
        with self.assertRaises(checks.CheckFailed):
            checks.check_cleared(n, edges, [[5, 6], [1, 3], [2, 4], [1, 2]], 3)
        checks.check_cleared(n, edges, [[1, 2], [3, 4], [5, 6], [7, 8]], 3)

    def test_resample_log(self):
        checks.check_resample_log(Log(2, ((0, 4), (3,))), 6)
        bad = {
            "count": Log(3, ((0, 4), (3,))),
            "empty sweep": Log(2, ((0, 4), ())),
            "descending": Log(1, ((4, 0),)),
            "out of range": Log(1, ((2, 6),)),
            "cap": Log(1, ((1,),), "cap_reached"),
        }
        for why, log in bad.items():
            with self.subTest(why), self.assertRaises(checks.CheckFailed):
                checks.check_resample_log(log, 6)

    def test_construction(self):
        # path 0-1-2 as a 2-uniform hypergraph: incidence graph is a path
        edges, n = [[0, 1], [1, 2]], 3
        report = {
            "bipartite": True,
            "k_degenerate": True,
            "lifted_valid": True,
            "strong_chromatic": 2,
            "dynamic_chromatic": 3,
            "lower_bound_holds": True,
            "upper_bound_holds": True,
            "incidence_vertices": 5,
            "incidence_edges": 4,
        }
        checks.check_construction(report, edges, n, 2, 2)
        for key, value in (("lifted_valid", False), ("dynamic_chromatic", 5), ("incidence_edges", 3)):
            with self.subTest(key), self.assertRaises(checks.CheckFailed):
                checks.check_construction(dict(report, **{key: value}), edges, n, 2, 2)
        with self.assertRaises(checks.CheckFailed):
            # the incidence graph of a triangle of 2-edges is a 6-cycle: not 1-degenerate
            checks.check_construction(
                dict(report, incidence_vertices=6, incidence_edges=6), [[0, 1], [1, 2], [0, 2]], 3, 2, 1
            )

    def test_simple_graph(self):
        n, edges = 4, cycle_edges(4)
        adj = [{1, 3}, {0, 2}, {1, 3}, {0, 2}]
        checks.check_simple_graph(n, edges, adj, 2)
        with self.assertRaises(checks.CheckFailed):
            checks.check_simple_graph(n, edges + [(0, 1)], adj, 2)
        with self.assertRaises(checks.CheckFailed):
            checks.check_simple_graph(n, edges, adj, 3)
        with self.assertRaises(checks.CheckFailed):
            checks.check_simple_graph(n, [(0, 0)], [set()] * 4)


class Instances(unittest.TestCase):
    def test_regular_graphs(self):
        for n, d in ((300, 3), (40, 8), (12, 5)):
            edges = regular_edges(n, d, random.Random(n * d))
            checks.check_simple_graph(n, edges, checks.adjacency(n, edges), d)

    def test_relabel_keeps_the_graph(self):
        n, edges = 8, complete_bipartite_edges(3, 5)
        moved = relabel(n, edges, random.Random(1))
        checks.check_simple_graph(n, moved, checks.adjacency(n, moved))
        degrees = sorted(len(a) for a in checks.adjacency(n, moved))
        self.assertEqual(degrees, [3] * 5 + [5] * 3)


if __name__ == "__main__":
    unittest.main()
