"""r-dynamic graph and hypergraph coloring toolkit."""

from types import ModuleType as _ModuleType

from .bounds import (
    bad_event_bound,
    bounds_report,
    fixed_set_hits_all_bound,
    sublist_condition_holds,
    sublist_condition_lhs,
)
from .choosability import is_k_choosable
from .coloring import (
    chi_exact,
    is_proper,
    is_r_dynamic,
    is_r_strong,
    solve_list_coloring,
)
from .constructions import AugmentedHypergraph, augment, construction_report, lift_coloring
from .experiments import experiment_random_graphs, random_list_assignment
from .graphs import (
    DegreeStats,
    Graph,
    Hypergraph,
    bipartition,
    build_graph,
    build_hypergraph,
    degeneracy,
    degree_stats,
    generate,
    incidence_graph,
    is_bipartite,
    is_k_degenerate,
    neighborhood_hypergraph,
)
from .greedy import greedy_r_dynamic
from .io import (
    parse_coloring,
    parse_graph,
    parse_hypergraph,
    parse_lists,
    serialize_coloring,
    serialize_graph,
    serialize_hypergraph,
    serialize_lists,
)
from .sublists import (
    PipelineResult,
    ResampleLog,
    SublistState,
    bad_event_holds,
    default_max_iters,
    dynamic_coloring_via_sublists,
    neighborhood_color_hypergraph,
    resample_until_clear,
    sample_sublists,
)
from .transversal import (
    CandidateFamily,
    candidate_family,
    has_small_transversal,
    is_transversal,
)

# Exported: every global not starting with _ that is not a module.  The imports
# also bind the submodules as attributes, and a star import of io would shadow
# the standard library.  Copied first: 3.12 inlines comprehensions (PEP 709).
__all__ = [
    name
    for name, value in list(globals().items())
    if not (name.startswith("_") or isinstance(value, _ModuleType))
]
