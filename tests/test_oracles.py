"""Exact agreement of the integer fast paths with the plain Fraction formulas.

The ordering-bound product, polynomial evaluation and the `order_bound`
check each have a straightforward rational form: a per-vertex product, a
Horner loop over Fractions, and a loop over every (order, activity) pair with
no deduplication, each order drawn by `random.Random.sample` and each
verdict a Fraction comparison. Those forms are kept here, test-only, as
oracles; the package must agree with them exactly, down to the last bit of
every float. The check draws its orders with `sample`'s pool method inlined,
decides verdicts on integer cross-products and takes a log2 only for
products near each activity's smallest one, so the oracle comparisons run on
3- to 5-regular graphs up to the 28 vertices of the default cap, the draws
are held to `sample` itself, and a K_{d,d} order that meets the bound with
equality must pass.

The engine's polynomials are also held to the occupancy-fraction theorem of
Davies, Jenssen, Perkins and Roberts (2017): on a d-regular graph,
lam P'(lam) / (n P(lam)) is at most its value on K_{d,d}, with equality
exactly on unions of K_{d,d}. Nothing in the package computes P', so this
is an independent check of the coefficients.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from indsets import bounds as bd
from indsets.graphs import (
    GraphError,
    component_masks,
    disjoint_union,
    gen_complete_bipartite,
    gen_cycle,
    gen_petersen,
    gen_random_regular,
    graph_stats,
    is_independent,
    mask_vertices,
)
from indsets.harness import CHECKS, CheckResult, GraphFacts, RunConfig, _distinct_histograms
from indsets.polynomial import IndependencePolynomial, independence_polynomial


def oracle_order_product(g, order, lam):
    """Per-vertex Fraction product prod_v (2(1+lam)^p(v) - 1)."""
    seen = 0
    product = Fraction(1)
    for v in order:
        p = (g.adj[v] & seen).bit_count()
        product *= 2 * (1 + lam) ** p - 1
        seen |= 1 << v
    return product


def oracle_evaluate(coeffs, lam):
    """Horner's rule over Fractions."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * lam + c
    return acc


def oracle_check_order_bound(g, stats, poly, cfg, graph_id):
    """The order check over every (order, activity) pair, no deduplication."""
    rng = random.Random(f"{cfg.seed}:{graph_id}:order_bound")
    values = {lam: oracle_evaluate(poly.coeffs, lam) for lam in cfg.lambdas}
    margin = None
    for _ in range(cfg.orders):
        order = rng.sample(range(stats.n), stats.n)
        for lam in cfg.lambdas:
            product = oracle_order_product(g, order, lam)
            if values[lam] ** stats.d > product:
                return CheckResult(
                    "order_bound",
                    "must_hold",
                    "fail",
                    holds_exact=False,
                    witness={
                        "activity": str(lam),
                        "order": order,
                        "value": str(values[lam]),
                        "product": str(product),
                    },
                )
            gap = bd.log2_fraction(product) / stats.d - bd.log2_fraction(values[lam])
            margin = gap if margin is None else min(margin, gap)
    return CheckResult("order_bound", "must_hold", "pass", holds_exact=True, margin_log2=margin)


@st.composite
def regular_graphs(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d + 1, 14))
    assume(n * d % 2 == 0)
    try:
        return gen_random_regular(n, d, draw(st.integers(0, 10**6)))
    except GraphError:
        assume(False)


positive_activities = st.one_of(
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**3, max_denominator=10**6),
    st.builds(Fraction, st.integers(1, 10**12), st.integers(2, 10**4)),
    st.builds(Fraction, st.integers(10**6, 10**15)),
).filter(lambda lam: lam > 0)


@settings(max_examples=80, deadline=None)
@given(regular_graphs(), st.randoms(use_true_random=False), positive_activities)
def test_order_bound_matches_per_vertex_product(g, rnd, lam):
    order = rnd.sample(range(g.n), g.n)
    report = bd.order_bound(g, order, lam)
    expected = oracle_order_product(g, order, lam)
    assert report.exact_value == expected
    assert report.log2_value == bd.log2_fraction(expected)


coefficient_lists = st.lists(st.integers(0, 10**9), min_size=0, max_size=12).map(
    lambda rest: (1, *rest, 1)
)
any_activities = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**3),
    st.fractions(max_denominator=10**40),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)


@settings(max_examples=200, deadline=None)
@given(coefficient_lists, any_activities)
def test_evaluate_matches_fraction_horner(coeffs, lam):
    poly = IndependencePolynomial(coeffs[1], coeffs)
    assert poly.evaluate(lam) == oracle_evaluate(coeffs, lam)


def test_evaluate_edge_activities():
    poly = IndependencePolynomial(5, (1, 5, 5))  # C_5
    assert poly.evaluate(0) == 1
    assert poly.evaluate(-1) == 1
    assert poly.evaluate(Fraction(-1, 2)) == Fraction(-1, 4)
    assert poly.evaluate(Fraction(1, 10**30)) == oracle_evaluate(poly.coeffs, Fraction(1, 10**30))
    assert IndependencePolynomial(0, (1,)).evaluate(Fraction(3, 7)) == 1


def _inflated(poly, factor):
    return IndependencePolynomial(
        poly.n, poly.coeffs[:2] + tuple(c * factor for c in poly.coeffs[2:]) + (factor,)
    )


def test_check_order_bound_failure_witness_matches_loop():
    # Petersen's polynomial is 1 + 10x + 30x^2 + 30x^3 + 5x^4; raising the top
    # coefficient to 39 first breaks the bound at the 14th order, activity 2,
    # after 13 orders that pass.
    g = gen_petersen()
    stats = graph_stats(g)
    poly = IndependencePolynomial(10, (1, 10, 30, 30, 39))
    cfg = RunConfig(orders=20, seed=0)
    got = CHECKS["order_bound"](GraphFacts("petersen", g, cfg, stats, poly))
    rng = random.Random("0:petersen:order_bound")
    orders = [rng.sample(range(10), 10) for _ in range(14)]
    assert got.status == "fail"
    assert (got.witness["order"], got.witness["activity"]) == (orders[13], "2")
    assert got.to_dict() == oracle_check_order_bound(g, stats, poly, cfg, "petersen").to_dict()


@settings(max_examples=60, deadline=None)
@given(
    regular_graphs(),
    st.lists(positive_activities, min_size=1, max_size=3),
    st.integers(0, 25),
    st.integers(0, 10**6),
    st.sampled_from([None, 1, 2, 50, 10**4]),
)
def test_check_order_bound_matches_undeduplicated_loop(g, lambdas, orders, seed, inflate):
    # `inflate` pumps up the coefficients so that the bound can fail, which
    # exercises the first-failure witness; None keeps the true polynomial.
    stats = graph_stats(g)
    poly = independence_polynomial(g)
    if inflate is not None:
        poly = _inflated(poly, inflate)
    cfg = RunConfig(lambdas=tuple(lambdas), orders=orders, seed=seed)
    got = CHECKS["order_bound"](GraphFacts("g", g, cfg, stats, poly))
    if orders == 0:
        assert got.status == "skip" and got.witness == {"reason": "no orders requested"}
        return
    want = oracle_check_order_bound(g, stats, poly, cfg, "g")
    # Serialised as in the report, so every float must match bit for bit.
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def pool_sample(rng, n):
    """random.Random.sample(range(n), n) spelled out: its pool branch, one
    _randbelow(n - i) per position."""
    pool = list(range(n))
    out = []
    for i in range(n):
        m = n - i
        k = m.bit_length()
        j = rng.getrandbits(k)
        while j >= m:
            j = rng.getrandbits(k)
        out.append(pool[j])
        pool[j] = pool[m - 1]
    return out


def test_inlined_draws_match_random_sample():
    for n in range(1, 65):
        g = gen_cycle(n) if n >= 3 else None
        adj, d = (g.adj, 2) if g else ((0,) * n, 0)
        for seed in range(50):
            mine, ref, lib = random.Random(seed), random.Random(seed), random.Random(seed)
            for _ in range(3):  # consecutive orders continue the same stream
                ((hist, order),) = _distinct_histograms(mine.getrandbits, adj, n, d, 1).items()
                assert order == pool_sample(ref, n) == lib.sample(range(n), n)
                assert hist == (bd.order_histogram(g, order, d) if g else (n,))


def _regular(n, d, seed):
    while True:
        try:
            return gen_random_regular(n, d, seed)
        except GraphError:
            seed += 1000


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("inflate", [None, 2, 10**4])
def test_check_order_bound_matches_oracle_up_to_the_default_cap(d, inflate):
    # Past the Hypothesis sizes: every n up to 28, 20 orders, the default
    # activities plus a small and a large one, bit for bit.
    lambdas = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3, 7), Fraction(10**9, 7))
    cfg = RunConfig(lambdas=lambdas, orders=20, seed=11)
    statuses = set()
    for n in range(d + 1, 29):
        if n * d % 2:
            continue
        g = _regular(n, d, n)
        stats = graph_stats(g)
        poly = independence_polynomial(g)
        if inflate is not None:
            poly = _inflated(poly, inflate)
        graph_id = f"rr:{n}:{d}"
        got = CHECKS["order_bound"](GraphFacts(graph_id, g, cfg, stats, poly))
        want = oracle_check_order_bound(g, stats, poly, cfg, graph_id)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        statuses.add(got.status)
    # The true polynomials pass, and inflated ones fail somewhere.
    assert ("fail" in statuses) == (inflate is not None)


def test_check_order_bound_matches_oracle_past_the_float_safe_size():
    # At lam = 2^80000 the Petersen graph's products have about 1.2M bits,
    # past harness.LOG2_SAFE_BITS, so every product gets a log2.
    g = gen_petersen()
    stats, poly = graph_stats(g), independence_polynomial(g)
    cfg = RunConfig(lambdas=(Fraction(2**80000),), orders=5, seed=3)
    got = CHECKS["order_bound"](GraphFacts("p", g, cfg, stats, poly))
    want = oracle_check_order_bound(g, stats, poly, cfg, "p")
    assert got.status == "pass"
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_check_order_bound_passes_at_equality_on_kdd():
    # On K_{d,d}, an order that lists one side first has product
    # (2(1+lam)^d - 1)^d = P(lam)^d: the bound holds with equality there.
    d = 3
    g = gen_complete_bipartite(d)
    side = (1 << d) - 1
    stats, poly = graph_stats(g), independence_polynomial(g)
    cfg = RunConfig(orders=20, seed=1)
    rng = random.Random("1:kdd:order_bound")
    orders = [rng.sample(range(2 * d), 2 * d) for _ in range(cfg.orders)]
    firsts = [sum(1 << v for v in order[:d]) for order in orders]
    assert any(first in (side, side << d) for first in firsts)
    got = CHECKS["order_bound"](GraphFacts("kdd", g, cfg, stats, poly))
    assert got.status == "pass" and got.holds_exact
    assert got.to_dict() == oracle_check_order_bound(g, stats, poly, cfg, "kdd").to_dict()


# ---------------------------------------------------------------------------
# Occupancy fraction (Davies, Jenssen, Perkins and Roberts 2017)
# ---------------------------------------------------------------------------


def occupancy_fraction(coeffs, n, lam):
    """lam P'(lam) / (n P(lam)): the expected fraction of vertices occupied."""
    value = sum(c * lam**t for t, c in enumerate(coeffs))
    weighted = sum(t * c * lam**t for t, c in enumerate(coeffs))
    return weighted / (n * value)


def kdd_occupancy_fraction(d, lam):
    """lam (1+lam)^(d-1) / (2(1+lam)^d - 1), the occupancy fraction of K_{d,d}."""
    return lam * (1 + lam) ** (d - 1) / (2 * (1 + lam) ** d - 1)


def is_kdd_union(g, d):
    # A triangle-free d-regular graph on 2d vertices has d^2 = (2d)^2/4 edges,
    # Mantel's maximum, so it is K_{d,d}.
    for comp in component_masks(g.adj, g.full_mask):
        if comp.bit_count() != 2 * d:
            return False
        for v in mask_vertices(comp):
            if not is_independent(g, g.adj[v]):
                return False
    return True


@st.composite
def regular_graphs_to_40(draw):
    if draw(st.booleans()):
        d = draw(st.integers(1, 5))
        copies = draw(st.integers(1, 40 // (2 * d)))
        g = gen_complete_bipartite(d)
        for _ in range(copies - 1):
            g = disjoint_union(g, gen_complete_bipartite(d))
        return g, d
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d + 1, 40))
    assume(n * d % 2 == 0)
    try:
        return gen_random_regular(n, d, draw(st.integers(0, 10**6))), d
    except GraphError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(regular_graphs_to_40(), st.lists(positive_activities, min_size=1, max_size=3))
def test_occupancy_fraction_at_most_kdd(graph, lambdas):
    # Exact in Fractions from the engine's coefficients, with equality exactly
    # on unions of K_{d,d}.
    g, d = graph
    coeffs = independence_polynomial(g).coeffs
    kdd = is_kdd_union(g, d)
    for lam in lambdas:
        got, bound = occupancy_fraction(coeffs, g.n, lam), kdd_occupancy_fraction(d, lam)
        assert got <= bound
        assert (got == bound) == kdd
