"""The exact ValueError text of every checker, solver, chromatic and
choosability entry point, one bad argument at a time and several together.

The checks run in a fixed order: mode, then r, then the list assignment,
the caps and k.  With several bad arguments the first in that order names
the error.
"""

from __future__ import annotations

import pytest

from dyncolor import (
    build_hypergraph,
    chi_exact,
    generate,
    is_k_choosable,
    is_proper,
    is_r_dynamic,
    is_r_strong,
    solve_list_coloring,
)

G = generate("cycle", n=5)
H = build_hypergraph(5, [[0, 1, 2], [2, 3, 4]])
LISTS = [[1, 2, 3]] * 5
SHORT = LISTS[:4]

MODE = "unknown mode 'bad'"
STRONG = "unknown mode 'strong'"
R = "r must be >= 1, got 0"
R_NEG = "r must be >= 0, got -3"
LENGTH = "list assignment has 4 entries for 5 vertices"
COLORING = "coloring has 4 entries for 5 vertices"
N_CAP = "n=5 exceeds cap 4; pass max_n to override"
K_LOW = "k must be >= 1, got 0"
K_CAP = "k=5 exceeds cap 4; pass max_k to override"

CASES = [
    ("proper-length", lambda: is_proper(G, [1, 2, 1, 2]), COLORING),
    ("proper-hypergraph", lambda: is_proper(H, [1, 2, 1, 2, 1]), "unknown mode 'proper'"),
    ("dynamic-r", lambda: is_r_dynamic(G, [1, 2, 1, 2, 3], 0), R),
    ("dynamic-length", lambda: is_r_dynamic(G, [1, 2, 1, 2], 2), COLORING),
    ("dynamic-r-2", lambda: is_r_dynamic(G, [1, 2, 1, 2], 0), R),
    ("strong-r", lambda: is_r_strong(H, [1, 2, 1, 2, 1], 0), R),
    ("strong-length", lambda: is_r_strong(H, [1, 2, 1, 2], 2), COLORING),
    ("strong-graph", lambda: is_r_strong(G, [1, 2, 1, 2, 3], 2), STRONG),
    ("solve-mode", lambda: solve_list_coloring(G, LISTS, mode="bad"), MODE),
    ("solve-strong", lambda: solve_list_coloring(G, LISTS, mode="strong", r=2), STRONG),
    ("solve-r", lambda: solve_list_coloring(G, LISTS, mode="dynamic", r=0), R),
    ("solve-length", lambda: solve_list_coloring(G, SHORT, mode="dynamic", r=2), LENGTH),
    ("solve-mode-2", lambda: solve_list_coloring(G, SHORT, mode="bad", r=0), MODE),
    ("solve-r-2", lambda: solve_list_coloring(G, SHORT, mode="dynamic", r=0), R),
    ("solve-r_negative", lambda: solve_list_coloring(G, LISTS, r=-3), R_NEG),
    ("solve-r_negative-2", lambda: solve_list_coloring(G, SHORT, r=-3), R_NEG),
    ("solve_strong-r", lambda: solve_list_coloring(H, LISTS, mode="strong", r=0), R),
    ("solve_strong-length", lambda: solve_list_coloring(H, SHORT, mode="strong", r=2), LENGTH),
    ("solve_strong-r-2", lambda: solve_list_coloring(H, SHORT, mode="strong", r=0), R),
    ("chi-mode", lambda: chi_exact(G, mode="bad"), MODE),
    ("chi-strong", lambda: chi_exact(G, mode="strong", r=2), STRONG),
    ("chi-r", lambda: chi_exact(G, mode="dynamic", r=0), R),
    ("chi-n_cap", lambda: chi_exact(G, max_n=4), N_CAP),
    ("chi-mode-2", lambda: chi_exact(G, mode="bad", r=0, max_n=4), MODE),
    ("chi-r-2", lambda: chi_exact(G, mode="dynamic", r=0, max_n=4), R),
    ("chi-r_negative", lambda: chi_exact(G, r=-3), R_NEG),
    ("chi-r_negative-2", lambda: chi_exact(G, r=-3, max_n=4), R_NEG),
    ("hyper_chi-r", lambda: chi_exact(H, mode="strong", r=0), R),
    ("hyper_chi-n_cap", lambda: chi_exact(H, mode="strong", r=2, max_n=4), N_CAP),
    ("hyper_chi-r-2", lambda: chi_exact(H, mode="strong", r=0, max_n=4), R),
    ("choosable-mode", lambda: is_k_choosable(G, 2, mode="bad"), MODE),
    ("choosable-strong", lambda: is_k_choosable(G, 2, mode="strong", r=2), STRONG),
    ("choosable-r", lambda: is_k_choosable(G, 2, mode="dynamic", r=0), R),
    ("choosable-n_cap", lambda: is_k_choosable(G, 2, max_n=4), N_CAP),
    ("choosable-k_low", lambda: is_k_choosable(G, 0), K_LOW),
    ("choosable-k_cap", lambda: is_k_choosable(G, 5), K_CAP),
    ("choosable-mode-2", lambda: is_k_choosable(G, 0, mode="bad", r=0, max_n=4, max_k=-1), MODE),
    ("choosable-r-2", lambda: is_k_choosable(G, 0, mode="dynamic", r=0, max_n=4, max_k=-1), R),
    ("choosable-k_low-2", lambda: is_k_choosable(G, 0, max_n=4, max_k=-1), K_LOW),
    ("choosable-r_negative", lambda: is_k_choosable(G, 2, r=-3), R_NEG),
    ("choosable-r_negative-2", lambda: is_k_choosable(G, 0, r=-3, max_n=4, max_k=-1), R_NEG),
    ("choosable-n_cap-2", lambda: is_k_choosable(G, 5, max_n=4), N_CAP),
    ("hyper_choosable-r", lambda: is_k_choosable(H, 2, mode="strong", r=0), R),
    ("hyper_choosable-n_cap", lambda: is_k_choosable(H, 2, mode="strong", r=2, max_n=4), N_CAP),
    ("hyper_choosable-k_low", lambda: is_k_choosable(H, 0, mode="strong", r=2), K_LOW),
    ("hyper_choosable-k_cap", lambda: is_k_choosable(H, 5, mode="strong", r=2), K_CAP),
    ("hyper_choosable-r-2", lambda: is_k_choosable(H, 0, mode="strong", r=0, max_n=4, max_k=-1), R),
    ("hyper_choosable-k_low-2", lambda: is_k_choosable(H, 0, mode="strong", r=2, max_n=4, max_k=-1), K_LOW),
    ("hyper_choosable-n_cap-2", lambda: is_k_choosable(H, 5, mode="strong", r=2, max_n=4), N_CAP),
]


@pytest.mark.parametrize("call,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_error_text_and_order(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
