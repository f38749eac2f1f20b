"""Exact independence polynomials with arbitrary-precision integer coefficients.

Coefficient t of the polynomial counts the independent sets of size t, so the
degree is the independence number and the coefficient sum is the total count.
`independence_polynomial` computes it with two exact methods under one rule,
applied to the whole graph and to every component the recurrence reaches:

- a component whose greedy vertex order (`frontier_order`) has width at most
  DP_MAX_WIDTH goes to `_frontier_dp`, which places the vertices in that
  order and keeps one packed polynomial per blocked set, the set of unplaced
  vertices that an independent set of the placed ones has a neighbour in.
  Only the set's part on the frontier (the placed vertices that still have
  an unplaced neighbour) blocks anything, so there are at most 2^width
  blocked sets, and frontier subsets that block the same vertices share one.
  A leaf whose order looks expensive goes along the cheapest of a few
  greedy orders from other start vertices instead;
- a wider one takes one step of the vertex recurrence

      P(G) = P(G - v) + activity * P(G - v - N(v))

  at a vertex of its first frontier wider than DP_MAX_WIDTH (or, when its
  minimum degree already rules the DP out, at a maximum-degree vertex), and
  each residual subgraph is split into connected components (their
  polynomials multiply) that face the rule again. Components are memoized
  by vertex mask.

Every polynomial is packed into one integer at the whole graph's digit width.
A 2^n enumeration oracle is kept alongside as an independent cross-check and
is never routed through the engine.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import inf

from .graphs import Graph, component_masks, mask_of, mask_vertices

BRUTE_FORCE_LIMIT = 24
# Most component masks the split engine's memo stores in one call. Residual
# components repeat under the recurrence, so the memo pays there, but a graph
# on n vertices has up to 2^n of them: past this many entries the engine keeps
# solving exactly and stops remembering, so its memory stays bounded.
MEMO_LIMIT = 1 << 22
# Widest greedy frontier solved by the frontier DP; a wider component is
# branched on. On random 3- and 5-regular graphs with 40-64 vertices (three
# seeds of the verify_reach benchmark corpus) 14 took the least total time,
# 15 was within 2% of it, 10-13 and 16-20 took 9-24% more, and 24 took 64%
# more; peak memory grew by 1-4 MB at 14, 6-12 MB at 18 and 24-55 MB at 24.
# The 3- to 5-regular graphs with n <= 28 measured so far have width 12 or
# less, and K_{8,8} has width 13, so each is one DP call.
DP_MAX_WIDTH = 14
# Cost estimate (frontier_order) from which a DP leaf also tries greedy
# orders from ORDER_STARTS other start vertices and takes the cheapest. On
# the verify_reach benchmark corpus (seeds 4242, 1, 7): over the 64 start
# vertices of each d = 3, n = 56 or 64 graph the estimate's rank correlation
# with the DP's state count was 0.81-0.99; thresholds 2^12-2^17 cut the
# states summed per seed from 2.53M-2.70M to 2.07M-2.26M, and 2^15-2^17 took
# the least time; 1, 2 and 4 starts took within 1% of each other and 8 took
# 4% more. No verify_small graph reaches 2^16 (its largest estimate is
# 33,119 at seed 4242).
ORDER_SEARCH_COST = 1 << 16
ORDER_STARTS = 4


class IndependencePolynomial(namedtuple("IndependencePolynomial", "n coeffs")):
    """Exact coefficient vector; index t holds the number of size-t independent sets."""

    __slots__ = ()

    def __new__(cls, n: int, coeffs: tuple[int, ...]):
        if not coeffs or coeffs[0] != 1:
            raise ValueError("coefficient 0 must be 1 (the empty set)")
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")
        if len(coeffs) > 1 and coeffs[-1] == 0:
            raise ValueError("top coefficient must be positive")
        if n > 0 and (len(coeffs) < 2 or coeffs[1] != n):
            raise ValueError("coefficient 1 must equal the vertex count")
        return super().__new__(cls, n, coeffs)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so route it through __new__'s checks.
        return cls(*iterable)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, t: int) -> int:
        return self.coeffs[t] if 0 <= t < len(self.coeffs) else 0

    def total(self) -> int:
        """Total number of independent sets (evaluation at activity 1)."""
        return sum(self.coeffs)

    def evaluate(self, activity) -> Fraction:
        """Exact value at activity a/b: sum_t c_t a^t b^(alpha-t), divided once by b^alpha."""
        lam = Fraction(activity)
        a, b = lam.numerator, lam.denominator
        acc = 0
        b_pow = 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * b_pow
            b_pow *= b
        return Fraction(acc, b**self.degree)


def _unpack(n: int, packed: int) -> IndependencePolynomial:
    shift = n + 1
    digit = (1 << shift) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & digit)
        packed >>= shift
    return IndependencePolynomial(n, tuple(coeffs))


def frontier_order(
    adj, verts: int, limit: int | None = None, first: int | None = None, budget: float = inf
) -> tuple[list[int], int, int, int]:
    """Greedy min-frontier order of the subgraph induced by a vertex mask, its width, peak and cost.

    The frontier is the set of placed vertices that still have an unplaced
    neighbour; the width is its largest size after any placement, and the
    peak is the first frontier of that size, as a vertex mask. The cost is
    the sum of 2^|frontier| over the placements. It bounds the frontier
    DP's state count summed over its steps along the order, and ranks
    orders of one graph much as that count does. Given a `limit`, the order
    stops as soon as the width exceeds it; it is then partial, and the peak
    is the first frontier wider than `limit`. Given a `budget`, it stops at
    the first placement whose running cost reaches the budget. Given
    `first`, that vertex is placed first and every later step is greedy.

    Each step places the vertex with the smallest key (frontier size after
    placing it, -(number of its placed neighbours), index). The middle term
    matters: on eight random cubic graphs with 64 vertices it cuts the width
    from 15-20 to 11-13. The frontier size is common to every candidate, so
    `key[v]` holds its change instead, `(left[v] > 0) - ones[v]`: `left[v]`
    counts v's unplaced neighbours and `ones[v]` its placed neighbours whose
    only unplaced neighbour is v. A placement changes the keys of its
    unplaced neighbours and of the last unplaced neighbour of a vertex it
    leaves with one, so each step updates O(degree^2) keys and takes one
    minimum.
    """
    nb = [0] * len(adj)
    deg = [0] * len(adj)
    ones = [0] * len(adj)
    key = {}
    for v in mask_vertices(verts):
        nb[v] = adj[v] & verts
        deg[v] = nb[v].bit_count()
        key[v] = (deg[v] > 0, 0, v)
    left = deg.copy()
    if limit is None:
        limit = len(adj)
    placed = frontier = peak = 0
    order = []
    size = width = cost = 0
    while key:
        if first is None:
            grow, _, best = min(key.values())
        else:
            grow, _, best = key[first]
            first = None
        del key[best]
        size += grow
        cost += 1 << size
        placed |= 1 << best
        order.append(best)
        if left[best]:
            frontier |= 1 << best
        nbrs = mask_vertices(nb[best])
        changed = []
        for u in nbrs:
            left[u] -= 1
            if not placed >> u & 1:
                changed.append(u)
            elif not left[u]:
                frontier &= ~(1 << u)
        for u in (best, *nbrs):
            if left[u] == 1 and placed >> u & 1:
                w = (nb[u] & ~placed).bit_length() - 1
                ones[w] += 1
                changed.append(w)
        for w in changed:
            key[w] = ((left[w] > 0) - ones[w], left[w] - deg[w], w)
        if size > width:
            width, peak = size, frontier
            if width > limit:
                break
        if cost >= budget:
            break
    return order, width, peak, cost


def _frontier_dp(adj, verts: int, order: list[int], shift: int) -> int:
    """Packed independence polynomial of the subgraph induced by `verts`.

    The vertices are placed in `order`, a permutation of `verts`, with every
    adjacency row restricted to `verts`. Before order[i] is placed, `states`
    maps each blocked set B, a set of unplaced vertices, to the packed
    polynomial of the independent sets S of the placed vertices whose
    unplaced neighbours are exactly B. The key holds B relative to the
    position: its bit j means that order[i + j] is in B. Placing v =
    order[i] moves every key k on by one position, to k >> 1: if bit 0 is
    set, v is in B and no such S can take it; otherwise this is S leaving v
    out. An even key also adds the state where S takes v, with key
    (k >> 1) | later and its value shifted one digit, where `later` holds
    v's neighbours placed after it relative to the next position. Once
    every vertex is placed, the one state left is key 0.

    A relative key reaches only as far as the farthest later neighbour: on
    the verify_reach benchmark corpus 96-97% of keys fit one 30-bit digit
    of a Python int (no edge spans more than 53 positions of an order),
    where masks of 40-64 vertices take two or three; and a state takes one
    shift where a vertex-mask key took a test and a clear of v's bit. On the
    same leaves and states this took 21% less time than vertex-mask keys on
    that corpus, and 0-3% more on the verify_small and single_graph
    corpora, whose leaves hold few states.

    These states are a quotient of independent subsets of the frontier
    (placed vertices with an unplaced neighbour): a vertex of S off the
    frontier blocks nothing, so B depends on S only through its frontier
    part, and frontier subsets that block the same vertices share a state.
    So there are at most 2^width states and usually far fewer, and a vertex
    that leaves the frontier needs no merge of its own. Each step fills a
    new dict: with vertex-mask keys, updating `states` in place over a
    snapshot of its items was as fast but raised the verify_reach
    benchmark's peak memory by 15% instead of 10% at DP_MAX_WIDTH = 14.

    Coefficient t sits at bit offset t * shift, and the caller passes the
    whole graph's shift n + 1 however few vertices `verts` holds. Each digit
    counts the independent sets of one size and one blocked set in a
    subgraph of at most n vertices, so it stays below 2^(n+1) and no digit
    carries into the next; and the result shares its digit width with the
    polynomials of the other components, so products with them stay exact
    as in `_split_engine`.
    """
    # The bit of a vertex -> the bit of its position in the order.
    rank = {1 << v: 1 << i for i, v in enumerate(order)}
    unplaced = verts
    states = {0: 1}
    for i, v in enumerate(order, 1):
        unplaced ^= 1 << v
        nb = adj[v] & unplaced
        later = 0
        while nb:
            low = nb & -nb
            later |= rank[low]
            nb ^= low
        later >>= i
        new = {}
        for k, p in states.items():
            h = k >> 1
            if h in new:
                new[h] += p
            else:
                new[h] = p
            if not k & 1:
                h |= later
                p <<= shift
                if h in new:
                    new[h] += p
                else:
                    new[h] = p
        states = new
    return states[0]


def _cheaper_order(adj, verts: int, order: list[int], limit: int, cost: int) -> list[int]:
    """The cheapest of `order`, of cost `cost`, and greedy orders from far-off start vertices.

    The starts are the first ORDER_STARTS vertices, by index, of the last
    breadth-first layer around `order[0]`. An order from one of them counts
    only if it places every vertex within width `limit`; it gives up as soon
    as its running cost reaches the cheapest cost so far.
    """
    seen = layer = 1 << order[0]
    while True:
        grown = 0
        for u in mask_vertices(layer):
            grown |= adj[u]
        grown &= verts & ~seen
        if not grown:
            break
        layer = grown
        seen |= grown
    for first in mask_vertices(layer)[:ORDER_STARTS]:
        other, _, _, other_cost = frontier_order(adj, verts, limit, first, cost)
        if other_cost < cost and len(other) == len(order):
            order, cost = other, other_cost
    return order


def _split_engine(g: Graph, max_width: int) -> IndependencePolynomial:
    """Independence polynomial by recurrence branches down to frontier-DP leaves.

    Every component the recurrence reaches, starting with the whole graph,
    is solved the same way. On a memo miss the component's greedy frontier
    order is taken; if its width is at most `max_width`, `_frontier_dp`
    solves the component along it. When that order's cost estimate (see
    `frontier_order`) is at least ORDER_SEARCH_COST, the DP goes along the
    cheapest of it and the orders `_cheaper_order` tries instead: only the
    order within a leaf changes, never which components are leaves or where
    the recurrence branches. A wider component takes the vertex recurrence

        P(G) = P(G - v) + activity * P(G - v - N(v))

    once. The order stops at its first frontier wider than
    `max_width`, and the branch vertex v is the vertex of that frontier with
    the most unplaced neighbours, then the most neighbours in the
    component, then the lowest index. Both residuals lose a vertex of the
    frontier that was too wide, one that would have stayed on it longest,
    and G - N[v] also loses its unplaced neighbours. Each
    residual subgraph is split into connected components, whose polynomials
    multiply and which face the same test; single-vertex components
    multiply by (1 + x) inline. The memo is keyed by vertex mask, is private
    to this call and stops growing once MEMO_LIMIT entries are stored.

    No order is narrower than the component's minimum degree: just before
    the last vertex is placed, all of its neighbours are on the frontier. A
    component whose minimum degree exceeds `max_width` therefore takes no
    order, and the same rule picks v from the whole component with every
    vertex unplaced: its lowest-index maximum-degree vertex. A negative
    `max_width` leaves this pure recurrence everywhere.

    Each polynomial is packed into one int, coefficient t at bit offset
    t * (n + 1) for n = g.n (Kronecker substitution x = 2^(n+1)), DP leaves
    included. This is exact: every polynomial formed here, whether a
    component's, a product over components or P(G - v) + x * P(G - N[v]),
    is the independence polynomial of an induced subgraph on at most n
    vertices. Its coefficients count independent sets, so each is at most
    2^n < 2^(n+1). As every coefficient is nonnegative, each digit of a
    packed product or sum is the matching coefficient of the result, and no
    digit carries into the next.
    """
    adj = g.adj
    shift = g.n + 1
    one_plus_x = 1 | (1 << shift)
    memo: dict[int, int] = {}

    def solve(verts: int) -> int:
        packed = 1
        for comp in component_masks(adj, verts):
            if comp & (comp - 1) == 0:
                packed *= one_plus_x
            else:
                packed *= solve_component(comp)
        return packed

    def solve_component(verts: int) -> int:
        cached = memo.get(verts)
        if cached is not None:
            return cached
        peak = unplaced = verts
        if min((adj[u] & verts).bit_count() for u in mask_vertices(verts)) <= max_width:
            order, width, peak, cost = frontier_order(adj, verts, max_width)
            if width <= max_width:
                if cost >= ORDER_SEARCH_COST:
                    order = _cheaper_order(adj, verts, order, max_width, cost)
                return remember(verts, _frontier_dp(adj, verts, order, shift))
            unplaced = verts & ~mask_of(order)
        v = max(
            mask_vertices(peak),
            key=lambda u: ((adj[u] & unplaced).bit_count(), (adj[u] & verts).bit_count(), -u),
        )
        rest = verts & ~(1 << v)
        return remember(verts, solve(rest) + (solve(rest & ~adj[v]) << shift))

    def remember(verts: int, packed: int) -> int:
        if len(memo) < MEMO_LIMIT:
            memo[verts] = packed
        return packed

    packed = solve_component(g.full_mask) if g.n else 1
    # solve and solve_component reach each other through closure cells, a
    # cycle that would keep the memo alive until the cyclic collector runs.
    memo.clear()
    return _unpack(g.n, packed)


def independence_polynomial(g: Graph) -> IndependencePolynomial:
    """Exact independence polynomial by `_split_engine` at DP_MAX_WIDTH.

    One rule covers the graph and every component the recurrence reaches: a
    component whose greedy frontier order has width at most DP_MAX_WIDTH is
    solved by the frontier DP, which holds at most 2^width states; a wider
    one is branched on once and its residual components are checked again.
    """
    return _split_engine(g, DP_MAX_WIDTH)


def brute_force_polynomial(g: Graph) -> IndependencePolynomial:
    """Enumeration oracle: test all 2^n subsets for independence.

    A subset is independent iff the subset without its lowest vertex is
    independent and that vertex has no neighbor inside the subset, so the
    scan reuses earlier answers but still visits every subset.
    """
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_LIMIT} vertices")
    adj = g.adj
    coeffs = [0] * (g.n + 1)
    coeffs[0] = 1
    indep = bytearray(1 << g.n)
    indep[0] = 1
    for s in range(1, 1 << g.n):
        low = s & -s
        if indep[s ^ low] and not (adj[low.bit_length() - 1] & s):
            indep[s] = 1
            coeffs[s.bit_count()] += 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return IndependencePolynomial(g.n, tuple(coeffs))
