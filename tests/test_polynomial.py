"""Independence polynomial: both engines vs enumeration oracle, routing, products, evaluation."""

import random
from fractions import Fraction
from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indsets import polynomial
from indsets.graphs import (
    build_graph,
    component_masks,
    disjoint_union,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_petersen,
    gen_random_regular,
    mask_vertices,
    max_independent_set,
)
from indsets.harness import graph_from_spec
from indsets.polynomial import (
    DP_MAX_WIDTH,
    IndependencePolynomial,
    _split_engine,
    _unpack,
    brute_force_polynomial,
    frontier_order,
    independence_polynomial,
)


def poly_product(p, q):
    """Polynomial of a disjoint union: the coefficient convolution."""
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return IndependencePolynomial(p.n + q.n, tuple(out))


def kdd_polynomial(d):
    """Polynomial of K_{d,d}: 2(1 + x)^d - 1."""
    return IndependencePolynomial(2 * d, (1, *(2 * comb(d, t) for t in range(1, d + 1))))


def kdd_union_polynomial(m, d):
    """Polynomial of m disjoint copies of K_{d,d}, by repeated convolution."""
    out = kdd_polynomial(d)
    for _ in range(m - 1):
        out = poly_product(out, kdd_polynomial(d))
    return out


def _dp(g):
    """The frontier DP on the whole graph, whatever its width."""
    order = frontier_order(g.adj, g.full_mask)[0]
    return _unpack(g.n, polynomial._frontier_dp(g.adj, g.full_mask, order, g.n + 1))


def _recurrence(g):
    """The pure vertex recurrence: a negative width limit takes no order and no DP leaf."""
    return _split_engine(g, -1)


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
    assert independence_polynomial(gen_cycle(5)).total() == 11
    assert independence_polynomial(gen_petersen()).coeffs == (1, 10, 30, 30, 5)
    assert independence_polynomial(gen_petersen()).total() == 76


def test_empty_graph_polynomial():
    assert independence_polynomial(build_graph(0, [])).coeffs == (1,)
    assert independence_polynomial(build_graph(1, [])).total() == 2


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
    assert p.evaluate(1) == 7
    assert p.evaluate(0) == 1
    c5 = IndependencePolynomial(5, (1, 5, 5))
    assert c5.evaluate(Fraction(1, 2)) == Fraction(19, 4)
    assert c5.evaluate(Fraction(1, 2)) == 1 + Fraction(5, 2) + Fraction(5, 4)


def test_count_examples():
    assert independence_polynomial(gen_complete_bipartite(3)).total() == 15 == 2 ** 4 - 1


def test_extremal_union_counts():
    for d in range(1, 9):
        copy = gen_complete_bipartite(d)
        g = copy
        for m in range(1, 4):
            assert independence_polynomial(g).total() == (2 ** (d + 1) - 1) ** m
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
    with pytest.raises(ValueError):
        IndependencePolynomial(2, (1, 2, 1))._replace(n=3)


def test_memo_limit_zero_still_correct(monkeypatch):
    g = gen_petersen()
    poly, _, branches = _leaves_and_branches(g, -1)
    assert poly.coeffs == (1, 10, 30, 30, 5)
    remembered = len(branches)
    assert len(set(branches)) == remembered
    # With no room in the memo every repeated component is solved again.
    monkeypatch.setattr(polynomial, "MEMO_LIMIT", 0)
    poly, _, branches = _leaves_and_branches(g, -1)
    assert poly.coeffs == (1, 10, 30, 30, 5)
    assert len(branches) > remembered and len(set(branches)) < len(branches)
    assert _split_engine(g, 2).coeffs == (1, 10, 30, 30, 5)


# Every path packs coefficient t at bit offset t * (n + 1), DP leaves on a
# component included. These graphs have n = 64, the vertex capacity; the
# edgeless one has the largest coefficients of any 64-vertex graph.

ENGINES = (independence_polynomial, _dp, _recurrence, lambda g: _split_engine(g, 3))


def _dp_leaf_shifts(monkeypatch):
    """Record the shift of every frontier-DP call, leaves of the split engine included."""
    shifts = []
    dp = polynomial._frontier_dp

    def spy(adj, verts, order, shift):
        shifts.append(shift)
        return dp(adj, verts, order, shift)

    monkeypatch.setattr(polynomial, "_frontier_dp", spy)
    return shifts


def test_edgeless_64_binomials(monkeypatch):
    shifts = _dp_leaf_shifts(monkeypatch)
    g = build_graph(64, [])
    for engine in ENGINES:
        assert engine(g).coeffs == tuple(comb(64, t) for t in range(65))
    assert shifts and set(shifts) == {65}


def test_32_disjoint_edges(monkeypatch):
    shifts = _dp_leaf_shifts(monkeypatch)
    g = graph_from_spec("gen:union:" + "+".join(["complete:2"] * 32))
    assert g.n == 64
    for engine in ENGINES:
        assert engine(g).coeffs == tuple(comb(32, t) * 2**t for t in range(33))
    assert shifts and set(shifts) == {65}


def test_four_kdd8_union(monkeypatch):
    shifts = _dp_leaf_shifts(monkeypatch)
    g = graph_from_spec("gen:union:kdd:8+kdd:8+kdd:8+kdd:8")
    for engine in ENGINES:
        assert engine(g) == kdd_union_polynomial(4, 8)
    # At width limit 3 the K_{8,8} copies are branched on until their
    # residual components fit, so most leaves are proper components.
    assert len(shifts) > len(ENGINES) and set(shifts) == {65}
    # K_{8,8} has greedy width 13, within DP_MAX_WIDTH, so the default
    # engine solves the union with one DP on the whole graph and no branch.
    assert frontier_order(g.adj, g.full_mask)[1] == 13 <= DP_MAX_WIDTH
    shifts.clear()
    assert independence_polynomial(g) == kdd_union_polynomial(4, 8)
    assert shifts == [65]


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomial, "MEMO_LIMIT", memo_limit)
        assert _recurrence(g) == full
        assert _split_engine(g, 3) == full
    if n <= 14:
        assert full == brute_force_polynomial(g)


def test_frontier_dp_on_c64_in_index_order():
    # Along 0..63 vertex 0's neighbour 63 lies 62 places ahead, so the
    # order-relative keys span more than one 30-bit digit of a Python int.
    n = 64
    g = gen_cycle(n)
    packed = polynomial._frontier_dp(g.adj, g.full_mask, list(range(n)), n + 1)
    expected = tuple([1] + [n * comb(n - k, k) // (n - k) for k in range(1, n // 2 + 1)])
    assert _unpack(n, packed).coeffs == expected
    assert sum(expected) == 23725150497407  # the Lucas number L_64


# The split engine behind independence_polynomial branches with the vertex
# recurrence until each component's greedy frontier order fits the width
# limit, then runs the frontier DP along it. A small forced limit exercises
# branches and DP leaves together; a negative one leaves the pure
# recurrence, and `_dp` is the pure DP.


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


@given(graphs(14), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_both_engines_match_oracle(g, max_width):
    assert _split_engine(g, max_width) == _dp(g) == _recurrence(g) == brute_force_polynomial(g)


def _induced(g, members):
    index = {v: i for i, v in enumerate(members)}
    edges = [(index[u], index[w]) for u in members for w in members if u < w and g.adj[u] >> w & 1]
    return build_graph(len(members), edges)


@given(graphs(14), st.integers(0, 2**14 - 1), st.data())
@settings(max_examples=80, deadline=None)
def test_frontier_dp_exact_along_any_order(g, mask, data):
    # The DP is exact for every order, not only the greedy one the engine
    # takes: each blocked set is tracked whatever the frontier looks like.
    shift = g.n + 1
    for verts in (g.full_mask, g.full_mask & mask):
        members = [v for v in range(g.n) if verts >> v & 1]
        order = data.draw(st.permutations(members))
        packed = polynomial._frontier_dp(g.adj, verts, order, shift)
        coeffs = []
        while packed:
            coeffs.append(packed & ((1 << shift) - 1))
            packed >>= shift
        assert tuple(coeffs) == brute_force_polynomial(_induced(g, members)).coeffs


@given(graphs(24), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_engines_agree_up_to_24_vertices(g, max_width):
    assert _split_engine(g, max_width) == _dp(g) == _recurrence(g)


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
    assert independence_polynomial(g) == _dp(g) == _recurrence(g)


def _naive_frontier(adj, verts, placed):
    unplaced = [v for v in range(len(adj)) if verts >> v & 1 and v not in placed]
    return {u for u in placed if any(adj[u] >> w & 1 for w in unplaced)}


def _greedy_frontiers(g, verts, order, forced=0):
    """Frontiers along `order`, asserting each step after the first `forced` is the greedy choice."""
    members = [v for v in range(g.n) if verts >> v & 1]
    placed = set()
    frontiers = [set()]
    for i, v in enumerate(order):
        def key(u):
            nbrs_placed = sum(g.adj[u] >> w & 1 for w in placed)
            return (len(_naive_frontier(g.adj, verts, placed | {u})), -nbrs_placed, u)

        if i >= forced:
            assert key(v) == min(key(u) for u in members if u not in placed)
        placed.add(v)
        frontiers.append(_naive_frontier(g.adj, verts, placed))
    return frontiers


@given(graphs(20), st.integers(0, 2**20 - 1), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_frontier_order_is_the_greedy_min_frontier_order(g, mask, limit):
    for verts in (g.full_mask, g.full_mask & mask):
        members = [v for v in range(g.n) if verts >> v & 1]
        order, width, peak, cost = frontier_order(g.adj, verts)
        assert sorted(order) == members
        frontiers = _greedy_frontiers(g, verts, order)
        assert width == max(map(len, frontiers))
        assert {v for v in range(g.n) if peak >> v & 1} == next(
            f for f in frontiers if len(f) == width
        )
        # The cost estimate sums 2^|frontier| over the placements.
        assert cost == sum(2 ** len(f) for f in frontiers[1:])
        # With a limit the order stops at the first frontier wider than it.
        part, part_width, part_peak, part_cost = frontier_order(g.adj, verts, limit)
        if width <= limit:
            assert (part, part_width, part_peak, part_cost) == (order, width, peak, cost)
        else:
            k = next(i for i, f in enumerate(frontiers) if len(f) > limit)
            assert part == order[:k] and part_width == limit + 1
            assert {v for v in range(g.n) if part_peak >> v & 1} == frontiers[k]
            assert part_cost == sum(2 ** len(f) for f in frontiers[1 : k + 1])


@given(graphs(20), st.data())
@settings(max_examples=40, deadline=None)
def test_frontier_order_from_a_forced_first_vertex(g, data):
    if not g.n:
        return
    first = data.draw(st.integers(0, g.n - 1))
    order, width, _, cost = frontier_order(g.adj, g.full_mask, None, first)
    # The forced vertex comes first; every later step is the greedy choice.
    assert order[0] == first and sorted(order) == list(range(g.n))
    frontiers = _greedy_frontiers(g, g.full_mask, order, forced=1)
    running = [sum(2 ** len(f) for f in frontiers[1 : k + 1]) for k in range(g.n + 1)]
    assert width == max(map(len, frontiers)) and cost == running[-1]
    # A budget ends the order at the first placement whose running cost reaches it.
    budget = data.draw(st.integers(1, cost + 1))
    part, _, _, part_cost = frontier_order(g.adj, g.full_mask, None, first, budget)
    k = next((k for k in range(1, g.n + 1) if running[k] >= budget), g.n)
    assert part == order[:k] and part_cost == running[k]


def test_routing_by_width(monkeypatch):
    calls = []
    order, dp, split = polynomial.frontier_order, polynomial._frontier_dp, component_masks

    def spy_order(adj, verts, limit):
        result = order(adj, verts, limit)
        calls.append(("order", result[1]))
        return result

    def spy_dp(adj, verts, order, shift):
        calls.append("dp")
        return dp(adj, verts, order, shift)

    def spy_split(adj, verts):
        calls.append("split")
        return split(adj, verts)

    monkeypatch.setattr(polynomial, "frontier_order", spy_order)
    monkeypatch.setattr(polynomial, "_frontier_dp", spy_dp)
    monkeypatch.setattr(polynomial, "component_masks", spy_split)

    narrow = gen_petersen()
    assert independence_polynomial(narrow).total() == 76
    (_, width), dp_call = calls
    assert width <= DP_MAX_WIDTH and dp_call == "dp"

    # No order of K_m is narrower than its minimum degree m - 1, so K_(T+2)
    # is branched on without one: its residual K_(T+1) fits, and the other
    # residual is empty.
    calls.clear()
    wide = gen_complete(DP_MAX_WIDTH + 2)
    assert independence_polynomial(wide).coeffs == (1, DP_MAX_WIDTH + 2)
    assert calls == ["split", ("order", DP_MAX_WIDTH), "dp", "split"]

    # Several levels of branches before the leaves fit: an order that ends
    # wider than the limit is a branch at its peak frontier, and each DP
    # leaf follows an order that fits.
    g = graph_from_spec("gen:rr:24:5:4")
    expected = _recurrence(g)
    calls.clear()
    assert _split_engine(g, 4) == expected
    widths = [call[1] for call in calls if isinstance(call, tuple)]
    assert calls[0] == "split" and max(widths) > 4
    assert calls.count("dp") == sum(w <= 4 for w in widths) > 1
    for before, call in zip(calls, calls[1:]):
        assert call != "dp" or before[1] <= 4

    # The pure recurrence takes no order at all.
    calls.clear()
    assert _recurrence(wide).coeffs == (1, DP_MAX_WIDTH + 2)
    assert calls and set(calls) == {"split"}

    seen = []
    monkeypatch.setattr(
        polynomial, "_split_engine", lambda g, max_width: seen.append(max_width)
    )
    independence_polynomial(wide)
    assert seen == [DP_MAX_WIDTH]


@given(graphs(20))
@settings(max_examples=40, deadline=None)
def test_cheaper_order_takes_only_complete_cheaper_orders(g):
    if g.n < 2:
        return
    order, width, _, cost = frontier_order(g.adj, g.full_mask)
    # Below the order's own width a try can stop partway; it must not count.
    for limit in range(width + 1):
        for budget in (cost, 2 ** (g.n + 1) * g.n):
            got = polynomial._cheaper_order(g.adj, g.full_mask, order, limit, budget)
            if got != order:
                other, other_width, _, other_cost = frontier_order(g.adj, g.full_mask, None, got[0])
                assert got == other and other_width <= limit and other_cost < budget


def _leaves_and_branches(g, max_width):
    """`_split_engine(g, max_width)`, its DP leaves and the components it branched on.

    Returns the polynomial, the DP leaves (vertex mask -> order) and the
    branches as (component, branch vertex) in the order taken. A component
    the engine solves is a memo hit, a DP leaf, or a branch at v:
    `component_masks` gets the first residual C - v, the calls for that
    residual's components follow, and then comes C - N[v]. Replaying that
    walk over the recorded calls, with the engine's memo rule, recovers each
    v from its first residual.
    """
    calls, leaves = [], {}
    dp, split = polynomial._frontier_dp, component_masks

    def spy_dp(adj, verts, order, shift):
        calls.append((verts, None))
        leaves[verts] = list(order)
        return dp(adj, verts, order, shift)

    def spy_split(adj, verts):
        calls.append((verts, split(adj, verts)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomial, "_frontier_dp", spy_dp)
        mp.setattr(polynomial, "component_masks", spy_split)
        poly = _split_engine(g, max_width)
    it, solved, branches = iter(calls), set(), []

    def walk(comps):
        for comp in comps:
            if comp & (comp - 1) and comp not in solved:
                replay(comp)

    def replay(c):
        rest, comps = next(it)
        if comps is None:
            assert rest == c
        else:
            assert rest & c == rest and (c ^ rest).bit_count() == 1
            v = (c ^ rest).bit_length() - 1
            branches.append((c, v))
            walk(comps)
            second, comps = next(it)
            assert second == rest & ~g.adj[v] and comps is not None
            walk(comps)
        if len(solved) < polynomial.MEMO_LIMIT:
            solved.add(c)

    if g.n:
        replay(g.full_mask)
    assert next(it, None) is None
    return poly, leaves, branches


@given(
    st.integers(0, 20),
    st.sampled_from([0.1, 0.3, 0.6, 0.9]),
    st.integers(0, 10**6),
    st.sampled_from([-1, 2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_dense_components_branch_at_the_lowest_max_degree_vertex(n, p, seed, max_width):
    g = random_graph(n, p, seed)
    for c, v in _leaves_and_branches(g, max_width)[2]:
        degree = {u: (g.adj[u] & c).bit_count() for u in mask_vertices(c)}
        if min(degree.values()) > max_width:
            top = max(degree.values())
            assert v == min(u for u, d in degree.items() if d == top)


def test_leaf_orders_move_no_leaf_and_no_branch():
    changed = branched = 0
    for spec in ("gen:rr:48:5:1", "gen:rr:64:3:6"):
        g = graph_from_spec(spec)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polynomial, "ORDER_SEARCH_COST", inf)
            plain = _leaves_and_branches(g, DP_MAX_WIDTH)
        ranked = _leaves_and_branches(g, DP_MAX_WIDTH)
        assert plain[0] == ranked[0]
        assert plain[1].keys() == ranked[1].keys() and plain[2] == ranked[2]
        changed += sum(plain[1][c] != ranked[1][c] for c in plain[1])
        branched += len(ranked[2])
    # gen:rr:48:5:1 is branched on, and some of its leaves cost past the
    # threshold and take another order; gen:rr:64:3:6 is one leaf.
    assert changed > 0 and branched > 0
