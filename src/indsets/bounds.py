"""Closed-form upper bounds for (weighted) independent-set counts in regular graphs.

Every evaluator returns a BoundReport holding a base-2 logarithm of the bound
("log" is log2 throughout) and the bound's cleared form: an integer `power`,
an exact right side `cleared` and an integer `scale`. A value lies at or
below the bound iff

    value**power * scale <= cleared.

Raising both sides to `power` clears every fractional exponent, so each
verdict is decided in exact integer or rational arithmetic and no irrational
root is ever taken. `BoundReport.judge` applies this rule; nothing else
decides a bound. Bounds that are rational for rational activity also carry
the exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import Graph


def log2_fraction(q: Fraction) -> float:
    """log2 of a positive rational, stable for values far beyond float range."""
    if q <= 0:
        raise ValueError("log2 of a nonpositive value")
    return math.log2(q.numerator) - math.log2(q.denominator)


@dataclass
class BoundReport:
    """A named bound value in log2 domain, its cleared form, and a verdict once judged.

    `exact_value`, when present, is the rational quantity whose log2 equals
    `log2_value`. `order_bound` reports the d-th power of its bound that way
    (the plain product, which is rational); the bound's own log2 is then
    constants["bound_log2"]. `tight` (value equals bound) is not serialised.
    """

    name: str
    log2_value: float
    power: int
    cleared: int | Fraction
    scale: int = 1
    exact_value: Fraction | None = None
    holds_exact: bool | None = None
    margin_log2: float | None = None
    tight: bool | None = None
    constants: dict = field(default_factory=dict)

    def judge(self, value, value_log2: float) -> BoundReport:
        """Decide value <= bound by the cleared form, set the margin log2(bound) -
        value_log2 and the equality flag, and return the report."""
        lhs = value if self.power == 1 else value**self.power
        if self.scale != 1:
            lhs *= self.scale
        self.holds_exact = lhs <= self.cleared
        self.tight = lhs == self.cleared
        self.margin_log2 = self.constants.get("bound_log2", self.log2_value) - value_log2
        return self

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "log2_value": self.log2_value}
        if self.exact_value is not None:
            out["exact_value"] = str(self.exact_value)
        if self.holds_exact is not None:
            out["holds_exact"] = self.holds_exact
        out["constants"] = self.constants
        return out


def _exact_report(name: str, exact: Fraction, **constants) -> BoundReport:
    return BoundReport(name, log2_fraction(exact), 1, exact, exact_value=exact, constants=constants)


# ---------------------------------------------------------------------------
# Bounds in terms of the independence number
# ---------------------------------------------------------------------------


def alekseev_bound(n: int, alpha: int) -> BoundReport:
    """(1 + n/alpha)^alpha, valid for every n-vertex graph."""
    if not 1 <= alpha <= n:
        raise ValueError("need 1 <= alpha <= n")
    exact = (1 + Fraction(n, alpha)) ** alpha
    return _exact_report("alekseev", exact, n=n, alpha=alpha)


def alekseev_weighted_bound(n: int, alpha: int, activity) -> BoundReport:
    """(1 + activity*n/alpha)^alpha; equality iff a union of equal-order cliques."""
    if not 1 <= alpha <= n:
        raise ValueError("need 1 <= alpha <= n")
    lam = Fraction(activity)
    if lam <= 0:
        raise ValueError("activity must be positive")
    exact = (1 + lam * n / alpha) ** alpha
    return _exact_report("alekseev_weighted", exact, n=n, alpha=alpha, activity=str(lam))


# ---------------------------------------------------------------------------
# Regular-graph count bounds (unweighted)
# ---------------------------------------------------------------------------


def kahn_bound(n: int, d: int) -> BoundReport:
    """exp2{(n/2)(1 + 2/d)}; exact power of two when the exponent is integral.

    Cleared form: count^(2d) <= 2^(n(d+2)).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    log2 = n * (d + 2) / (2 * d)
    exact = None
    if n * (d + 2) % (2 * d) == 0:
        exact = Fraction(2) ** (n * (d + 2) // (2 * d))
    cleared = 1 << n * (d + 2)
    return BoundReport("kahn", log2, 2 * d, cleared, exact_value=exact, constants={"n": n, "d": d})


def conjecture_bound(n: int, d: int) -> BoundReport:
    """(2^(d+1) - 1)^(n/2d): the extremal count, attained by K_{d,d} unions.

    Cleared form: count^(2d) <= (2^(d+1) - 1)^n.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    base = 2 ** (d + 1) - 1
    log2 = n * math.log2(base) / (2 * d)
    exact = Fraction(base) ** (n // (2 * d)) if n % (2 * d) == 0 else None
    return BoundReport(
        "conjecture_counts", log2, 2 * d, base**n, exact_value=exact, constants={"n": n, "d": d}
    )


# ---------------------------------------------------------------------------
# Regular-graph partition-function bounds (weighted)
# ---------------------------------------------------------------------------


def kdd_weighted_bound(n: int, d: int, activity) -> BoundReport:
    """(2(1+activity)^d - 1)^(n/2d): the weighted extremal value.

    Cleared form: value^(2d) <= (2(1+activity)^d - 1)^n.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    lam = Fraction(activity)
    if lam <= 0:
        raise ValueError("activity must be positive")
    base = 2 * (1 + lam) ** d - 1
    log2 = n * log2_fraction(base) / (2 * d)
    exact = base ** (n // (2 * d)) if n % (2 * d) == 0 else None
    constants = {"n": n, "d": d, "activity": str(lam)}
    return BoundReport(
        "conjecture_weighted", log2, 2 * d, base**n, exact_value=exact, constants=constants
    )


def weighted_kahn_bound(n: int, d: int, activity) -> BoundReport:
    """(1+activity)^(n/2) * 2^(n/d): the independent-first bound at alpha = 0."""
    report = independent_first_bound(n, d, 0, activity)
    report.name = "weighted_kahn"
    del report.constants["alpha"]
    return report


# ---------------------------------------------------------------------------
# Ordering bound and the independent-first specialization
# ---------------------------------------------------------------------------


def order_histogram(g: Graph, order, d: int) -> tuple[int, ...]:
    """h[p] = number of vertices with exactly p neighbors earlier in the order, p = 0..d."""
    adj = g.adj
    hist = [0] * (d + 1)
    seen = 0
    for v in order:
        hist[(adj[v] & seen).bit_count()] += 1
        seen |= 1 << v
    return tuple(hist)


def order_product(hist: tuple[int, ...], activity, edge_count: int) -> Fraction:
    """prod_v (2(1+activity)^(p(v)) - 1) from the p-value histogram, exactly.

    For activity a/b each factor is (2(a+b)^p - b^p) / b^p, and the p-values
    sum to the edge count E, so the product is one integer numerator over
    b^E, built from at most d+1 integer powers.
    """
    if sum(p * h for p, h in enumerate(hist)) != edge_count:
        raise AssertionError("order p-values must sum to the edge count")
    a, b = activity.as_integer_ratio()
    num = 1
    for p, h in enumerate(hist):
        if h:
            num *= (2 * (a + b) ** p - b**p) ** h
    return Fraction(num, b**edge_count)


def order_bound(g: Graph, order, activity) -> BoundReport:
    """Total-order bound: prod_v (2(1+activity)^(p(v)) - 1)^(1/d).

    p(v) counts the neighbors of v that precede it in the order; the p-values
    always sum to the edge count. The cleared form is P^d <= product, and the
    product (the d-th power of the bound, which is rational) is the report's
    exact value; the bound's own log2 is in constants["bound_log2"].
    """
    d = g.regular_degree()
    if d is None or d < 1:
        raise ValueError("order bound requires a d-regular graph with d >= 1")
    perm = list(order)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    lam = Fraction(activity)
    if lam <= 0:
        raise ValueError("activity must be positive")
    product = order_product(order_histogram(g, perm, d), lam, g.edge_count())
    log2_product = log2_fraction(product)
    constants = {"n": g.n, "d": d, "activity": str(lam), "bound_log2": log2_product / d}
    return BoundReport(
        "order_bound", log2_product, d, product, exact_value=product, constants=constants
    )


def independent_first_bound(n: int, d: int, alpha: int, activity) -> BoundReport:
    """(1+activity)^(n/2) * 2^((n-alpha)/d), from orders listing an independent set first.

    Cleared form: value^(2d) <= (1+activity)^(nd) * 2^(2(n-alpha)).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if not 0 <= alpha <= n / 2:
        raise ValueError("alpha above n/2 is impossible for a regular graph")
    lam = Fraction(activity)
    if lam <= 0:
        raise ValueError("activity must be positive")
    log2 = (n / 2) * log2_fraction(1 + lam) + (n - alpha) / d
    exact = None
    if n % 2 == 0 and (n - alpha) % d == 0:
        exact = (1 + lam) ** (n // 2) * Fraction(2) ** ((n - alpha) // d)
    cleared = (1 + lam) ** (n * d) * 2 ** (2 * (n - alpha))
    constants = {"n": n, "d": d, "alpha": alpha, "activity": str(lam)}
    return BoundReport(
        "independent_first", log2, 2 * d, cleared, exact_value=exact, constants=constants
    )


# ---------------------------------------------------------------------------
# Fixed-size bounds
# ---------------------------------------------------------------------------


def binary_entropy(x: float) -> float:
    """H(x) = -x*log2(x) - (1-x)*log2(1-x), with H(0) = H(1) = 0."""
    if not 0 <= x <= 1:
        raise ValueError("entropy argument must lie in [0, 1]")
    if x == 0 or x == 1:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def fixed_size_rhs(n: int, d: int) -> int:
    """n^(n*d) * 2^(2n): the cleared right side of `fixed_size_bound`, shared by every t."""
    return n ** (n * d) << (2 * n)


def fixed_size_bound(n: int, d: int, t: int, cleared: int | None = None) -> BoundReport:
    """exp2{(n/2)(H(2t/n) + 2/d)}.

    (n/2)H(2t/n) = (n/2)log2(n) - t*log2(2t) - ((n-2t)/2)log2(n-2t), so the
    power 2d clears every fractional exponent:
    count^(2d) * (2t)^(2td) * (n-2t)^((n-2t)d) <= n^(nd) * 2^(2n), with
    0^0 = 1. Pass `cleared = fixed_size_rhs(n, d)` to compute the right side
    once for every t of a graph.
    """
    if d < 1 or n < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if not 0 <= 2 * t <= n:
        raise ValueError("need 0 <= t <= n/2 for the entropy argument")
    log2 = (n / 2) * (binary_entropy(2 * t / n) + 2 / d)
    rest = n - 2 * t
    if cleared is None:
        cleared = fixed_size_rhs(n, d)
    scale = (2 * t) ** (2 * t * d) * rest ** (rest * d)
    constants = {"n": n, "d": d, "t": t}
    return BoundReport("fixed_size", log2, 2 * d, cleared, scale, constants=constants)
