"""Fiber graphs of equal-margin contingency tables.

Structure analysis (degrees, connectivity, diameter, weight orientation,
matching decompositions) of the graphs whose vertices are n x n non-negative
integer tables with all margins r and whose edges are 2x2 swap moves, plus a
seeded Metropolis-Hastings sampler for exact tests on such tables.
"""

from .analysis import (
    ConnectivityReport,
    DetourPathReport,
    LiuCheckResult,
    articulation_vertices,
    bfs_distances,
    common_moves,
    detour_paths,
    diameter,
    diameter_witness_pair,
    distance_between,
    distance_two_pairs,
    hemmecke_graph,
    is_connected,
    liu_check,
    local_connectivity,
    vertex_connectivity,
)
from .decomposition import (
    MatchingDecomposition,
    decompose,
    decompose_constrained,
    perfect_matching,
)
from .enumeration import (
    Fiber,
    count_fiber,
    enumerate_fiber,
)
from .graphs import (
    CsrGraph,
    FiberGraph,
    OrientedFiberGraph,
    WeightVector,
    build_graph,
    export_graph,
    find_sinks,
    is_acyclic,
    orient,
)
from .sampler import (
    ChainState,
    ExactTestResult,
    Target,
    VisitCounter,
    WalkConfig,
    acceptance_ratio,
    advance,
    as_equal_margin_table,
    chi_square_statistic,
    exact_test,
    run_walk,
    step,
    transition_probabilities,
)
from .tables import (
    ContingencyTable,
    MarkovMove,
    MaxDegreeBound,
    apply_move,
    degree,
    degree_by_support_pairs,
    enumerate_basis_moves,
    is_valid_move,
    max_degree_value,
    min_degree_value,
    move_from_difference,
    scaled_permutation,
    support,
    valid_moves,
    validate_table,
)

__version__ = "0.1.0"
