"""Sandpile monoids, weighted graph monoids, and their group invariants."""

from . import errors
from .graph import (
    SandpileGraph,
    WeightedDigraph,
    cycle_companion_sandpile,
    cycle_companion_unweighted,
    graph_to_dot,
    is_hereditary_saturated,
    loop_sink_graph,
    non_cycle_vertices,
    parse_graph,
    quotient_graph,
    reduce_graph,
    validate_sandpile,
    weighted_cycle_graph,
)
from .group import SandpileGroup, sandpile_group
from .ktheory import (
    cokernel,
    k0_matrix,
    reduced_laplacian,
    smith_diagonal,
    smith_normal_form,
)
from .monoid import (
    AbelianGroupInvariants,
    FiniteCommMonoid,
    abelian_invariants,
    atoms,
    classify_cyclic_sum,
    enumerate_sandpile_monoid,
    enumerate_weighted_monoid,
    group_completion,
    is_refinement,
    monoid_isomorphic,
    quotient_by_submonoid,
    smallest_ideal,
    units,
)
from .realize import (
    conicality_report,
    cycle_suite,
    prime_order_case,
    realization,
    refinement_structure,
)
from .rewrite import (
    StabilizationTrace,
    config_from_counts,
    config_to_str,
    equivalent,
    parse_config,
    r_transform,
    stabilize,
    stabilize_weighted,
)

__version__ = "1.0.0"
