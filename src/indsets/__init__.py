"""Exact independent-set counting and bound certification for regular graphs."""

import importlib
import sys

# Exact values are printed as decimal strings in full, so importing the package
# lifts the interpreter's int-to-str digit limit for the whole process: library
# calls and --jobs workers then behave as the CLI does.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

from .graphs import (
    Graph,
    GraphError,
    GraphStats,
    build_graph,
    disjoint_union,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_petersen,
    gen_random_regular,
    graph_stats,
    is_independent,
    mask_of,
    mask_vertices,
    max_independent_set,
    parse_graph6,
    write_graph6,
)
from .polynomial import (
    IndependencePolynomial,
    brute_force_polynomial,
    independence_polynomial,
)

__version__ = "0.1.0"

# `bounds` and `cover` load on first use (see harness._lazy_submodule), so
# their names resolve here, on first access (PEP 562).
_LAZY_NAMES = {
    **dict.fromkeys(
        ("BoundReport", "alekseev_weighted_bound", "binary_entropy", "fixed_size_bound",
         "independent_first_bound", "kahn_bound", "kdd_weighted_bound", "order_bound"),
        "bounds",
    ),
    **dict.fromkeys(
        ("CoverCertificate", "build_cover", "cover_count_bound", "phi_default", "verify_cover"),
        "cover",
    ),
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
