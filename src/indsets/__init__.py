"""Exact independent-set counting and bound certification for regular graphs."""

from .bounds import (
    BoundReport,
    alekseev_bound,
    alekseev_weighted_bound,
    binary_entropy,
    conjecture_bound,
    fixed_size_bound,
    independent_first_bound,
    kahn_bound,
    kdd_weighted_bound,
    order_bound,
    weighted_kahn_bound,
)
from .cover import (
    CoverCertificate,
    build_cover,
    cover_count_bound,
    phi_default,
    verify_cover,
)
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
    count_independent_sets,
    evaluate,
    independence_polynomial,
    kdd_polynomial,
    kdd_union_polynomial,
    poly_product,
)

__version__ = "0.1.0"
