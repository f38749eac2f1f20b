"""Metamorphic properties of the polynomial engine and the graph6 codec.

Each property relates two computations that must agree exactly, so graphs
far beyond the brute-force oracle's reach (up to 40 vertices, and unions up
to 64) are still checked.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from indsets.graphs import build_graph, disjoint_union, mask_vertices, parse_graph6, write_graph6
from indsets.polynomial import independence_polynomial, poly_product


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def relabel(g, perm):
    """The graph with vertex v renamed perm[v]."""
    return build_graph(
        g.n,
        [(perm[u], perm[v]) for v in range(g.n) for u in mask_vertices(g.adj[v] & ((1 << v) - 1))],
    )


graphs = st.builds(
    lambda n, p, seed: random_graph(n, p, random.Random(seed)),
    st.integers(0, 40),
    st.sampled_from([0.08, 0.15, 0.3, 0.6]),
    st.integers(0, 10 ** 6),
)


@given(graphs, st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_polynomial_invariant_under_relabelling(g, rng):
    perm = rng.sample(range(g.n), g.n)
    assert independence_polynomial(relabel(g, perm)) == independence_polynomial(g)


@given(
    st.integers(1, 32),
    st.integers(1, 32),
    st.sampled_from([0.1, 0.2, 0.5]),
    st.integers(0, 10 ** 6),
)
@settings(max_examples=25, deadline=None)
def test_union_polynomial_is_product(n1, n2, p, seed):
    rng = random.Random(seed)
    g = random_graph(n1, p, rng)
    h = random_graph(n2, p, rng)
    assert independence_polynomial(disjoint_union(g, h)) == poly_product(
        independence_polynomial(g), independence_polynomial(h)
    )


@given(graphs, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_graph6_round_trip_after_relabelling(g, rng):
    permuted = relabel(g, rng.sample(range(g.n), g.n))
    assert permuted.edge_count() == g.edge_count()
    assert parse_graph6(write_graph6(permuted)) == permuted
