from __future__ import annotations

import pytest

from dyncolor import (
    augment,
    build_hypergraph,
    chi_exact,
    construction_report,
    incidence_graph,
    is_r_dynamic,
    lift_coloring,
    parse_hypergraph,
    solve_list_coloring,
)

TRIANGLE = build_hypergraph(3, [{0, 1}, {1, 2}, {0, 2}])
MATCHING = build_hypergraph(4, [{0, 1}, {2, 3}])


def test_augment_structure_r2():
    aug = augment(TRIANGLE, 2, 2, seed=0)
    assert aug.core == ()  # r=2 adds no core vertices
    assert aug.hyper.n == 4  # padded to a multiple of k
    assert aug.hyper.m == 3 + 2 * 2  # base edges plus two partitions of 4 into pairs
    assert aug.hyper.edges[:3] == TRIANGLE.edges
    assert len(aug.matchings) == 2
    for idxs in aug.matchings:
        blocks = [aug.hyper.edges[j] for j in idxs]
        assert all(len(b) == 2 for b in blocks)
        covered = set().union(*blocks)
        assert covered == set(range(4))
    # partitions reuse no block
    all_blocks = [aug.hyper.edges[j] for idxs in aug.matchings for j in idxs]
    assert len(set(all_blocks)) == len(all_blocks)


def test_augment_core_r3():
    aug = augment(TRIANGLE, 3, 3, seed=0)
    assert aug.core == (3,)
    assert aug.hyper.n == 6
    for j in range(TRIANGLE.m):
        assert aug.core[0] in aug.hyper.edges[j]
        assert len(aug.hyper.edges[j]) == 3
    assert aug.hyper.m == 3 + 3 * 2  # three partitions of 6 into triples


def test_augment_deterministic():
    a = augment(MATCHING, 2, 2, seed=5)
    b = augment(MATCHING, 2, 2, seed=5)
    assert a == b
    c = augment(MATCHING, 2, 2, seed=6)
    assert a.hyper != c.hyper  # frozen seeds chosen to differ


def test_edge_label():
    aug = augment(MATCHING, 2, 2, seed=0)
    assert aug.edge_label(0) == ("base", 0)
    assert aug.edge_label(1) == ("base", 1)
    assert aug.edge_label(aug.matchings[0][0]) == ("matching", 1)
    assert aug.edge_label(aug.matchings[1][-1]) == ("matching", 2)
    with pytest.raises(IndexError):
        aug.edge_label(aug.hyper.m)


def test_augment_validation():
    with pytest.raises(ValueError):
        augment(TRIANGLE, 1, 2, seed=0)
    with pytest.raises(ValueError):
        augment(TRIANGLE, 3, 2, seed=0)  # k < r
    with pytest.raises(ValueError):
        augment(build_hypergraph(3, [{0, 1, 2}]), 2, 2, seed=0)  # size != k-r+2
    with pytest.raises(ValueError):
        # one block per partition: a second distinct partition cannot exist
        augment(build_hypergraph(3, [{0, 1, 2}]), 2, 3, seed=0)


def test_lift_coloring_valid():
    aug = augment(TRIANGLE, 2, 2, seed=0)
    strong = chi_exact(aug.hyper, mode="strong", r=2)
    f = solve_list_coloring(aug.hyper, [range(1, strong + 1)] * aug.hyper.n, mode="strong", r=2)
    lifted = lift_coloring(aug, f, (strong + 1, strong + 2))
    g, _, _ = incidence_graph(aug.hyper)
    assert is_r_dynamic(g, lifted, 2)
    assert lifted[: aug.hyper.n] == f
    # base edges carry the last fresh color, each partition its own
    for j in range(aug.hyper.m):
        kind, i = aug.edge_label(j)
        want = strong + 2 if kind == "base" else strong + i
        assert lifted[aug.hyper.n + j] == want


def test_lift_coloring_validation():
    aug = augment(TRIANGLE, 2, 2, seed=0)
    f = [1, 2, 3, 1]
    with pytest.raises(ValueError):
        lift_coloring(aug, [1, 1, 1, 1], (4, 5))  # not 2-strong
    with pytest.raises(ValueError):
        lift_coloring(aug, f, (4,))
    with pytest.raises(ValueError):
        lift_coloring(aug, f, (4, 4))
    with pytest.raises(ValueError):
        lift_coloring(aug, f, (3, 4))  # overlaps f
    with pytest.raises(ValueError):
        lift_coloring(aug, f + [1], (4, 5))


FROZEN_REPORTS = [
    # (base, r, k, seed, strong, dynamic, lifted_colors, incidence_n)
    (TRIANGLE, 2, 2, 0, 3, 3, 5, 11),
    (build_hypergraph(3, [{0, 1}, {1, 2}]), 2, 2, 0, 3, 3, 5, 10),
    (build_hypergraph(4, [{0, 1}, {1, 2}, {2, 3}, {0, 3}]), 2, 2, 1, 4, 4, 6, 12),
    (MATCHING, 2, 2, 0, 2, 4, 4, 10),
    (build_hypergraph(4, [{0, 1}, {0, 2}, {0, 3}]), 2, 2, 0, 3, 3, 5, 11),
    (build_hypergraph(5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}]), 2, 2, 0, 3, 4, 5, 16),
    (build_hypergraph(6, [{0, 1, 2}]), 2, 3, 0, 2, 4, 4, 11),
    (build_hypergraph(6, [{0, 1, 2}, {1, 2, 3}]), 2, 3, 0, 2, 4, 4, 12),
    (build_hypergraph(6, [{0, 1, 2}, {3, 4, 5}]), 2, 3, 2, 2, 4, 4, 12),
    (TRIANGLE, 3, 3, 0, 5, 5, 8, 15),
    (MATCHING, 3, 3, 0, 5, 5, 8, 14),
    (build_hypergraph(3, [{0, 1}, {1, 2}]), 3, 3, 0, 5, 5, 8, 14),
]


@pytest.mark.parametrize("case", FROZEN_REPORTS, ids=lambda c: f"n{c[0].n}m{c[0].m}r{c[1]}k{c[2]}s{c[3]}")
def test_construction_report_frozen(case):
    base, r, k, seed, strong, dynamic, lifted_colors, incidence_n = case
    rep = construction_report(base, r, k, seed, max_n=24)
    assert rep["strong_chromatic"] == strong
    assert rep["dynamic_chromatic"] == dynamic
    assert rep["lifted_colors_used"] == lifted_colors
    assert rep["incidence_vertices"] == incidence_n
    assert rep["bipartite"] and rep["k_degenerate"] and rep["lifted_valid"]
    assert rep["lower_bound_holds"] and rep["upper_bound_holds"]
    assert strong <= dynamic <= strong + r
    assert rep["base_vertices"] == base.n and rep["base_edges"] == base.m
    assert rep["r"] == r and rep["k"] == k and rep["seed"] == seed


def test_construction_report_tight_upper_bound():
    # two disjoint pairs: strong number 2, dynamic number exactly strong + r
    rep = construction_report(MATCHING, 2, 2, seed=0, max_n=24)
    assert rep["dynamic_chromatic"] == rep["strong_chromatic"] + 2


def test_construction_report_cap():
    p5 = build_hypergraph(5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}])
    with pytest.raises(ValueError):
        construction_report(p5, 2, 2, seed=0, max_n=12)  # incidence graph has 16 vertices


def test_construction_report_r3_seed_50317():
    # a chromatic search that tries every renaming of each coloring spends
    # seconds on this 22-vertex incidence graph at k = 5
    h = parse_hypergraph("h 7 4\n2 4\n3 4\n4 6\n4 7\n")
    report = construction_report(h, 3, 3, 50317, max_n=24)
    assert report["incidence_vertices"] == 22
    assert report["strong_chromatic"] == 5
    assert report["dynamic_chromatic"] == 6
    assert report["lower_bound_holds"] and report["upper_bound_holds"]
