"""Sandpile monoids, weighted graph monoids, and their group invariants."""

from . import errors
from .graph import (
    SandpileGraph,
    WeightedDigraph,
    cycle_companion_sandpile,
    cycle_companion_unweighted,
    graph_to_dot,
    graph_to_text,
    is_hereditary_saturated,
    loop_sink_graph,
    multi_cycle_sandpile,
    non_cycle_vertices,
    parse_graph,
    quotient_graph,
    reduce_graph,
    rose_graph,
    shortest_sink_distances,
    validate_sandpile,
    weighted_cycle_graph,
)
from .group import SandpileGroup, sandpile_group
from .ktheory import (
    adjacency,
    cokernel,
    determinant,
    k0_matrix,
    k0_of_weighted_graph,
    reduced_laplacian,
    sandpile_group_via_k0,
    smith_diagonal,
    smith_normal_form,
)
from .monoid import (
    AbelianGroupInvariants,
    FiniteCommMonoid,
    abelian_invariants,
    atoms,
    classify_cyclic_sum,
    cyclic_group_monoid,
    cyclic_monoid,
    direct_sum,
    direct_sum_of_cyclic,
    enumerate_sandpile_monoid,
    enumerate_weighted_monoid,
    group_completion,
    is_atom_cancellative,
    is_conical,
    is_refinement,
    monogenic_monoid,
    monoid_isomorphic,
    quotient_by_submonoid,
    smallest_ideal,
    units,
)
from .realize import (
    conicality_report,
    cycle_suite,
    prime_order_case,
    random_sandpile_corpus,
    realization,
    refinement_structure,
)
from .rewrite import (
    StabilizationTrace,
    common_reduct,
    config_from_counts,
    config_to_str,
    equivalent,
    parse_config,
    potential,
    r_transform,
    stabilize,
    stabilize_weighted,
    topple_once,
)

__version__ = "1.0.0"
