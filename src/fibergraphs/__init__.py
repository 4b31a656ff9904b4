"""Fiber graphs of equal-margin contingency tables.

Structure analysis (degrees, connectivity, diameter, weight orientation,
matching decompositions) of the graphs whose vertices are n x n non-negative
integer tables with all margins r and whose edges are 2x2 swap moves, plus a
seeded Metropolis-Hastings sampler for exact tests on such tables.

Importing the package loads none of its modules: each public name below, and
each module, is imported on first access (PEP 562), so a command pays only
for the modules it runs.
"""

import sys

_EXPORTS = {
    "analysis": (
        "ConnectivityReport", "DetourPathReport", "LiuCheckResult", "articulation_vertices",
        "detour_paths", "diameter", "diameter_witness_pair", "distance_between",
        "distance_two_pairs", "hemmecke_graph", "is_connected", "liu_check",
        "local_connectivity", "vertex_connectivity",
    ),
    "decomposition": ("MatchingDecomposition", "decompose"),
    "enumeration": ("Fiber", "count_fiber", "enumerate_fiber"),
    "graphs": (
        "CsrGraph", "FiberGraph", "OrientedFiberGraph", "build_graph",
        "export_graph", "find_sinks", "is_acyclic", "orient",
    ),
    "sampler": (
        "ChainState", "ExactTestResult", "Target", "VisitCounter", "WalkConfig", "advance",
        "chi_square_statistic", "exact_test", "run_walk",
    ),
    "tables": (
        "ContingencyTable", "MaxDegreeBound", "apply_move", "as_equal_margin_table",
        "max_degree_value", "move_cells", "scaled_permutation", "valid_moves", "validate_table",
    ),
}
_MODULES = (*_EXPORTS, "cli", "errors", "io")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _MODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, unlike importlib's, is listed by -X importtime
    __import__(f"{__name__}.{module}")
    loaded = sys.modules[f"{__name__}.{module}"]
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
