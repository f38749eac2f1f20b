"""Independence polynomial: both engines vs enumeration oracle, routing, products, evaluation."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indsets import polynomial
from indsets.graphs import (
    build_graph,
    disjoint_union,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_petersen,
    gen_random_regular,
    max_independent_set,
)
from indsets.harness import graph_from_spec
from indsets.polynomial import (
    DP_MAX_WIDTH,
    IndependencePolynomial,
    _frontier_dp,
    _recurrence,
    brute_force_polynomial,
    count_independent_sets,
    evaluate,
    frontier_order,
    independence_polynomial,
    kdd_polynomial,
    kdd_union_polynomial,
    poly_product,
)


def _dp(g):
    return _frontier_dp(g, frontier_order(g.adj, g.n)[0])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def test_kdd_coefficients():
    assert independence_polynomial(gen_complete_bipartite(2)).coeffs == (1, 4, 2)
    for d in range(1, 7):
        expected = tuple([1] + [2 * comb(d, t) for t in range(1, d + 1)])
        assert independence_polynomial(gen_complete_bipartite(d)).coeffs == expected
        assert kdd_polynomial(d).coeffs == expected


def test_complete_graph_polynomial():
    for n in range(1, 8):
        assert independence_polynomial(gen_complete(n)).coeffs == (1, n)


def test_cycle_and_petersen_polynomials():
    assert independence_polynomial(gen_cycle(5)).coeffs == (1, 5, 5)
    assert count_independent_sets(gen_cycle(5)) == 11
    assert independence_polynomial(gen_petersen()).coeffs == (1, 10, 30, 30, 5)
    assert count_independent_sets(gen_petersen()) == 76


def test_empty_graph_polynomial():
    assert independence_polynomial(build_graph(0, [])).coeffs == (1,)
    assert count_independent_sets(build_graph(1, [])) == 2


def test_brute_force_examples():
    assert brute_force_polynomial(build_graph(3, [])).coeffs == (1, 3, 3, 1)
    assert brute_force_polynomial(gen_complete(3)).coeffs == (1, 3)
    assert brute_force_polynomial(gen_cycle(4)).coeffs == (1, 4, 2)


def test_brute_force_size_guard():
    with pytest.raises(ValueError):
        brute_force_polynomial(build_graph(25, []))


def test_poly_product_examples():
    k2 = IndependencePolynomial(2, (1, 2))
    assert poly_product(k2, k2).coeffs == (1, 4, 4)
    sq = poly_product(kdd_polynomial(2), kdd_polynomial(2))
    assert sq.coeffs == (1, 8, 20, 16, 4)
    assert sq.total() == 49 == 7 ** 2
    one = IndependencePolynomial(0, (1,))
    assert poly_product(k2, one) == k2


def test_evaluate_examples():
    p = IndependencePolynomial(4, (1, 4, 2))
    assert evaluate(p, 1) == 7
    assert evaluate(p, 0) == 1
    c5 = IndependencePolynomial(5, (1, 5, 5))
    assert evaluate(c5, Fraction(1, 2)) == Fraction(19, 4)
    assert evaluate(c5, Fraction(1, 2)) == 1 + Fraction(5, 2) + Fraction(5, 4)


def test_count_examples():
    assert count_independent_sets(gen_complete_bipartite(3)) == 15 == 2 ** 4 - 1


def test_extremal_union_counts():
    for d in range(1, 9):
        copy = gen_complete_bipartite(d)
        g = copy
        for m in range(1, 4):
            assert count_independent_sets(g) == (2 ** (d + 1) - 1) ** m
            if m < 3:
                g = disjoint_union(g, copy)


def test_kdd_union_polynomial():
    assert kdd_union_polynomial(1, 2).coeffs == (1, 4, 2)
    assert kdd_union_polynomial(2, 2).coeffs == (1, 8, 20, 16, 4)
    for d in (2, 3, 5):
        for m in (1, 2, 3):
            assert kdd_union_polynomial(m, d).total() == (2 ** (d + 1) - 1) ** m


def test_union_factorization_exact():
    g = gen_cycle(5)
    h = gen_complete_bipartite(2)
    u = disjoint_union(g, h)
    assert independence_polynomial(u) == poly_product(
        independence_polynomial(g), independence_polynomial(h)
    )


@given(st.integers(0, 10), st.sampled_from([0.15, 0.4, 0.7]), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_recurrence_matches_oracle(n, p, seed):
    g = random_graph(n, p, seed)
    assert independence_polynomial(g) == _recurrence(g) == brute_force_polynomial(g)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_union_factorization_random(n1, n2, seed):
    g = random_graph(n1, 0.5, seed)
    h = random_graph(n2, 0.5, seed + 1)
    assert independence_polynomial(disjoint_union(g, h)) == poly_product(
        independence_polynomial(g), independence_polynomial(h)
    )


@given(st.integers(1, 12), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_degree_equals_alpha(n, p, seed):
    g = random_graph(n, p, seed)
    assert independence_polynomial(g).degree == max_independent_set(g).bit_count()


def test_invariant_validation():
    with pytest.raises(ValueError):
        IndependencePolynomial(2, (2, 2))  # constant term must be 1
    with pytest.raises(ValueError):
        IndependencePolynomial(3, (1, 2))  # singleton count must equal n
    with pytest.raises(ValueError):
        IndependencePolynomial(2, (1, 2, -1))
    with pytest.raises(ValueError):
        IndependencePolynomial(2, (1, 2, 0))


def test_json_round_trip():
    p = independence_polynomial(gen_petersen())
    assert IndependencePolynomial.from_json(p.to_json()) == p
    text = kdd_union_polynomial(3, 8).to_json()
    assert '"coeffs"' in text and '"n": 48' in text
    assert IndependencePolynomial.from_json(text) == kdd_union_polynomial(3, 8)


def test_memo_limit_zero_still_correct():
    g = gen_petersen()
    assert _recurrence(g, memo_limit=0).coeffs == (1, 10, 30, 30, 5)


# Both engines pack coefficient t at bit offset t * (n + 1). These graphs have
# n = 64, the vertex capacity; the edgeless one has the largest coefficients
# of any 64-vertex graph.

ENGINES = (independence_polynomial, _dp, _recurrence)


def test_edgeless_64_binomials():
    g = build_graph(64, [])
    for engine in ENGINES:
        assert engine(g).coeffs == tuple(comb(64, t) for t in range(65))


def test_32_disjoint_edges():
    g = graph_from_spec("gen:union:" + "+".join(["complete:2"] * 32))
    assert g.n == 64
    for engine in ENGINES:
        assert engine(g).coeffs == tuple(comb(32, t) * 2**t for t in range(33))


def test_four_kdd8_union():
    g = graph_from_spec("gen:union:kdd:8+kdd:8+kdd:8+kdd:8")
    for engine in ENGINES:
        assert engine(g) == kdd_union_polynomial(4, 8)


@given(
    st.integers(0, 20),
    st.sampled_from([0.1, 0.25, 0.5]),
    st.integers(0, 10 ** 6),
    st.sampled_from([0, 1, 5]),
)
@settings(max_examples=60, deadline=None)
def test_small_memo_limit_matches_default(n, p, seed, memo_limit):
    g = random_graph(n, p, seed)
    full = _recurrence(g)
    assert _recurrence(g, memo_limit=memo_limit) == full
    if n <= 14:
        assert full == brute_force_polynomial(g)


# The two engines behind independence_polynomial: the frontier DP along a
# greedy order, and the degree-capped vertex recurrence.


def _regular_graph(n, d, seed):
    return gen_random_regular(n + (n * d) % 2, d, seed)


def graphs(max_n):
    irregular = st.builds(
        random_graph, st.integers(0, max_n), st.sampled_from([0.1, 0.25, 0.5]), st.integers(0, 10**6)
    )
    regular = st.builds(
        _regular_graph, st.integers(6, max_n - 1), st.sampled_from([3, 4]), st.integers(0, 10**6)
    )
    return st.one_of(irregular, regular)


@given(graphs(14))
@settings(max_examples=60, deadline=None)
def test_both_engines_match_oracle(g):
    assert _dp(g) == _recurrence(g) == brute_force_polynomial(g)


@given(graphs(24))
@settings(max_examples=40, deadline=None)
def test_engines_agree_up_to_24_vertices(g):
    assert _dp(g) == _recurrence(g)


@pytest.mark.parametrize(
    "spec",
    [
        "gen:rr:28:3:1",
        "gen:rr:28:4:2",
        "gen:rr:28:5:3",
        "gen:rr:24:5:4",
        "gen:rr:48:3:5",
        "gen:rr:64:3:6",
    ],
)
def test_engines_agree_on_random_regular(spec):
    g = graph_from_spec(spec)
    assert _dp(g) == _recurrence(g)


def _naive_frontier(adj, placed):
    unplaced = [v for v in range(len(adj)) if v not in placed]
    return {u for u in placed if any(adj[u] >> w & 1 for w in unplaced)}


@given(graphs(20))
@settings(max_examples=40, deadline=None)
def test_frontier_order_is_the_greedy_min_frontier_order(g):
    order, width = frontier_order(g.adj, g.n)
    assert sorted(order) == list(range(g.n))
    placed = set()
    sizes = [0]
    for v in order:
        def key(u):
            nbrs_placed = sum(g.adj[u] >> w & 1 for w in placed)
            return (len(_naive_frontier(g.adj, placed | {u})), -nbrs_placed, u)

        assert key(v) == min(key(u) for u in range(g.n) if u not in placed)
        placed.add(v)
        sizes.append(len(_naive_frontier(g.adj, placed)))
    assert width == max(sizes)


def test_routing_by_width(monkeypatch):
    calls = []
    monkeypatch.setattr(polynomial, "_frontier_dp", lambda g, order: calls.append("dp"))
    monkeypatch.setattr(
        polynomial, "_recurrence", lambda g, memo_limit: calls.append(("rec", memo_limit))
    )
    narrow, wide = gen_petersen(), gen_complete(DP_MAX_WIDTH + 2)
    assert frontier_order(narrow.adj, narrow.n)[1] <= DP_MAX_WIDTH
    assert frontier_order(wide.adj, wide.n)[1] == DP_MAX_WIDTH + 1
    independence_polynomial(narrow)
    independence_polynomial(wide, memo_limit=7)
    assert calls == ["dp", ("rec", 7)]
