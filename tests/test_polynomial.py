"""Independence polynomial: recurrence vs enumeration oracle, products, evaluation."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indsets.graphs import (
    build_graph,
    disjoint_union,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_petersen,
    max_independent_set,
)
from indsets.harness import graph_from_spec
from indsets.polynomial import (
    IndependencePolynomial,
    brute_force_polynomial,
    count_independent_sets,
    evaluate,
    independence_polynomial,
    kdd_polynomial,
    kdd_union_polynomial,
    poly_product,
)


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
    assert independence_polynomial(g) == brute_force_polynomial(g)


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
    assert independence_polynomial(g, memo_limit=0).coeffs == (1, 10, 30, 30, 5)


# The engine packs coefficient t at bit offset t * (n + 1). These graphs have
# n = 64, the vertex capacity; the edgeless one has the largest coefficients
# of any 64-vertex graph.


def test_edgeless_64_binomials():
    p = independence_polynomial(build_graph(64, []))
    assert p.coeffs == tuple(comb(64, t) for t in range(65))


def test_32_disjoint_edges():
    g = graph_from_spec("gen:union:" + "+".join(["complete:2"] * 32))
    assert g.n == 64
    p = independence_polynomial(g)
    assert p.coeffs == tuple(comb(32, t) * 2**t for t in range(33))


def test_four_kdd8_union():
    g = graph_from_spec("gen:union:kdd:8+kdd:8+kdd:8+kdd:8")
    assert independence_polynomial(g) == kdd_union_polynomial(4, 8)


@given(
    st.integers(0, 20),
    st.sampled_from([0.1, 0.25, 0.5]),
    st.integers(0, 10 ** 6),
    st.sampled_from([0, 1, 5]),
)
@settings(max_examples=60, deadline=None)
def test_small_memo_limit_matches_default(n, p, seed, memo_limit):
    g = random_graph(n, p, seed)
    full = independence_polynomial(g)
    assert independence_polynomial(g, memo_limit=memo_limit) == full
    if n <= 14:
        assert full == brute_force_polynomial(g)
