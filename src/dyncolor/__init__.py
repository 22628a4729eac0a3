"""r-dynamic graph and hypergraph coloring toolkit."""

from .bounds import bounds_report
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
    bad_event_bound,
    bad_event_holds,
    default_max_iters,
    dynamic_coloring_via_sublists,
    fixed_set_hits_all_bound,
    neighborhood_color_hypergraph,
    resample_until_clear,
    sample_sublists,
    sublist_condition_holds,
    sublist_condition_lhs,
)
from .transversal import (
    CandidateFamily,
    candidate_family,
    has_small_transversal,
    is_transversal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
