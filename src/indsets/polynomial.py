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
  blocked sets, and frontier subsets that block the same vertices share one;
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

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graphs import Graph, component_masks, mask_of, mask_vertices, max_degree_vertex

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


@dataclass(frozen=True)
class IndependencePolynomial:
    """Exact coefficient vector; index t holds the number of size-t independent sets."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("coefficient 0 must be 1 (the empty set)")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("top coefficient must be positive")
        if self.n > 0 and (len(self.coeffs) < 2 or self.coeffs[1] != self.n):
            raise ValueError("coefficient 1 must equal the vertex count")

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


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _unpack(n: int, packed: int) -> IndependencePolynomial:
    shift = n + 1
    digit = (1 << shift) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & digit)
        packed >>= shift
    return IndependencePolynomial(n, tuple(coeffs))


def frontier_order(
    adj, verts: int, limit: int | None = None
) -> tuple[list[int], int, int]:
    """Greedy min-frontier order of the subgraph induced by a vertex mask, its width and peak.

    The frontier is the set of placed vertices that still have an unplaced
    neighbour; the width is its largest size after any placement, and the
    peak is the first frontier of that size, as a vertex mask. Given a
    `limit`, the order stops as soon as the width exceeds it; it is then
    partial, and the peak is the first frontier wider than `limit`.

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
    size = width = 0
    while key:
        grow, _, best = min(key.values())
        del key[best]
        size += grow
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
    return order, width, peak


def _frontier_dp(adj, verts: int, order: list[int], shift: int) -> int:
    """Packed independence polynomial of the subgraph induced by `verts`.

    The vertices are placed in `order`, a permutation of `verts`, with every
    adjacency row restricted to `verts`. After each placement, `states` maps
    each blocked set B, a set of unplaced vertices, to the packed polynomial
    of the independent sets S of the placed vertices whose unplaced
    neighbours are exactly B. Placing v visits every state once: if v is in
    B, no such S can take v, and the state only loses v's bit; otherwise S
    may leave v out, which keeps the key, or take it, which adds v's
    unplaced neighbours to the key and one digit to the value. Once every
    vertex is placed, the one state left is B = 0.

    These states are a quotient of independent subsets of the frontier
    (placed vertices with an unplaced neighbour): a vertex of S off the
    frontier blocks nothing, so B depends on S only through its frontier
    part, and frontier subsets that block the same vertices share a state.
    So there are at most 2^width states and usually far fewer, and a vertex
    that leaves the frontier needs no merge of its own. Each step fills a
    new dict: updating `states` in place over a snapshot of its items was
    as fast but raised the verify_reach benchmark's peak memory by 15%
    instead of 10% at DP_MAX_WIDTH = 14.

    Coefficient t sits at bit offset t * shift, and the caller passes the
    whole graph's shift n + 1 however few vertices `verts` holds. Each digit
    counts the independent sets of one size and one blocked set in a
    subgraph of at most n vertices, so it stays below 2^(n+1) and no digit
    carries into the next; and the result shares its digit width with the
    polynomials of the other components, so products with them stay exact
    as in `_split_engine`.
    """
    unplaced = verts
    states = {0: 1}
    for v in order:
        bit = 1 << v
        unplaced ^= bit
        nb = adj[v] & unplaced
        new = {}
        for blk, p in states.items():
            if blk & bit:
                blk ^= bit
            else:
                if blk in new:
                    new[blk] += p
                else:
                    new[blk] = p
                blk |= nb
                p <<= shift
            if blk in new:
                new[blk] += p
            else:
                new[blk] = p
        states = new
    return states[0]


def _split_engine(g: Graph, max_width: int) -> IndependencePolynomial:
    """Independence polynomial by recurrence branches down to frontier-DP leaves.

    Every component the recurrence reaches, starting with the whole graph,
    is solved the same way. On a memo miss the component's greedy frontier
    order is taken; if its width is at most `max_width`, `_frontier_dp`
    solves the component along it. Otherwise the vertex recurrence

        P(G) = P(G - v) + activity * P(G - v - N(v))

    is applied once. The order stops at its first frontier wider than
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
    order and is branched on at a maximum-degree vertex (lowest index on
    ties); a negative `max_width` leaves this pure recurrence everywhere.
    Degrees cannot grow in an induced subgraph, so each such branch
    vertex's degree caps the scans of its children.

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

    def solve(verts: int, cap: int) -> int:
        packed = 1
        for comp in component_masks(adj, verts):
            if comp & (comp - 1) == 0:
                packed *= one_plus_x
            else:
                packed *= solve_component(comp, cap)
        return packed

    def solve_component(verts: int, cap: int) -> int:
        cached = memo.get(verts)
        if cached is not None:
            return cached
        if min((adj[u] & verts).bit_count() for u in mask_vertices(verts)) > max_width:
            v, cap = max_degree_vertex(adj, verts, cap)
        else:
            order, width, peak = frontier_order(adj, verts, max_width)
            if width <= max_width:
                return remember(verts, _frontier_dp(adj, verts, order, shift))
            unplaced = verts & ~mask_of(order)
            v = max(
                mask_vertices(peak),
                key=lambda u: ((adj[u] & unplaced).bit_count(), (adj[u] & verts).bit_count(), -u),
            )
        rest = verts & ~(1 << v)
        return remember(verts, solve(rest, cap) + (solve(rest & ~adj[v], cap) << shift))

    def remember(verts: int, packed: int) -> int:
        if len(memo) < MEMO_LIMIT:
            memo[verts] = packed
        return packed

    packed = solve_component(g.full_mask, g.n) if g.n else 1
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


def poly_product(
    p: IndependencePolynomial, q: IndependencePolynomial
) -> IndependencePolynomial:
    """Polynomial of a disjoint union: exact coefficient convolution."""
    return IndependencePolynomial(p.n + q.n, tuple(_convolve(list(p.coeffs), list(q.coeffs))))


def kdd_polynomial(d: int) -> IndependencePolynomial:
    """Polynomial of K_{d,d}: 2(1+activity)^d - 1, i.e. coefficient 2*C(d,t) for t >= 1."""
    if d < 1:
        raise ValueError("side size must be at least 1")
    return IndependencePolynomial(
        2 * d, tuple([1] + [2 * comb(d, t) for t in range(1, d + 1)])
    )


def kdd_union_polynomial(m: int, d: int) -> IndependencePolynomial:
    """Polynomial of m disjoint copies of K_{d,d} via repeated convolution."""
    if m < 1:
        raise ValueError("need at least one copy")
    out = kdd_polynomial(d)
    for _ in range(m - 1):
        out = poly_product(out, kdd_polynomial(d))
    return out
