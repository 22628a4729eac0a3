"""The public surface: the exported names and the README's library tour."""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import dyncolor

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_pinned():
    # adding or removing an export has to be deliberate: edit this list too
    assert sorted(dyncolor.__all__) == [
        "AugmentedHypergraph",
        "CandidateFamily",
        "DegreeStats",
        "Graph",
        "Hypergraph",
        "PipelineResult",
        "ResampleLog",
        "SublistState",
        "augment",
        "bad_event_bound",
        "bad_event_holds",
        "bipartition",
        "bounds_report",
        "build_graph",
        "build_hypergraph",
        "candidate_family",
        "chi_exact",
        "construction_report",
        "default_max_iters",
        "degeneracy",
        "degree_stats",
        "dynamic_coloring_via_sublists",
        "experiment_random_graphs",
        "fixed_set_hits_all_bound",
        "generate",
        "greedy_r_dynamic",
        "has_small_transversal",
        "incidence_graph",
        "is_bipartite",
        "is_k_choosable",
        "is_k_degenerate",
        "is_proper",
        "is_r_dynamic",
        "is_r_strong",
        "is_transversal",
        "lift_coloring",
        "neighborhood_color_hypergraph",
        "neighborhood_hypergraph",
        "parse_coloring",
        "parse_graph",
        "parse_hypergraph",
        "parse_lists",
        "random_list_assignment",
        "resample_until_clear",
        "sample_sublists",
        "serialize_coloring",
        "serialize_graph",
        "serialize_hypergraph",
        "serialize_lists",
        "solve_list_coloring",
        "sublist_condition_holds",
        "sublist_condition_lhs",
    ]


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from dyncolor import *", namespace)
    assert "io" not in namespace  # would shadow the standard library's io
    assert set(namespace) - {"__builtins__"} == set(dyncolor.__all__)


def tour_source():
    """The python block under the README's "Library tour" heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library tour")) + len("```python\n")
    return text[start : text.index("```", start)]


def test_readme_tour_values():
    # every expression statement in the tour shows its value as a trailing
    # `# <literal>` comment; run the tour and compare each one
    source = tour_source()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    scope = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.Module(body=[stmt], type_ignores=[])
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, "README.md", "exec"), scope)
            continue
        expected = ast.literal_eval(comments[stmt.end_lineno])
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
        assert got == expected, ast.get_source_segment(source, stmt)
        checked += 1
    assert checked
