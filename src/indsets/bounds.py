"""Closed-form upper bounds for (weighted) independent-set counts in regular graphs.

Every evaluator returns a BoundReport holding a base-2 logarithm of the bound
("log" is log2 throughout). Bounds that are rational for rational activity
also carry the exact value, and the conjectured extremal inequalities are
checked by comparing integer powers so no irrational root is ever taken.
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
    """A named bound value in log2 domain, with exact witness where available.

    `exact_value`, when present, is the rational quantity whose log2 equals
    `log2_value`; for bounds reported as an integer power (to stay rational)
    the power and the bound's own log2 live in `constants`.
    """

    name: str
    log2_value: float
    exact_value: Fraction | None = None
    holds_exact: bool | None = None
    margin_log2: float | None = None
    constants: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "log2_value": self.log2_value}
        if self.exact_value is not None:
            out["exact_value"] = str(self.exact_value)
        if self.holds_exact is not None:
            out["holds_exact"] = self.holds_exact
        out["constants"] = self.constants
        return out


def _exact_report(name: str, exact: Fraction, **constants) -> BoundReport:
    return BoundReport(
        name=name,
        log2_value=log2_fraction(exact),
        exact_value=exact,
        constants=constants,
    )


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
    return _exact_report(
        "alekseev_weighted", exact, n=n, alpha=alpha, activity=str(lam)
    )


# ---------------------------------------------------------------------------
# Regular-graph count bounds (unweighted)
# ---------------------------------------------------------------------------


def kahn_bound(n: int, d: int) -> BoundReport:
    """exp2{(n/2)(1 + 2/d)}; exact power of two when the exponent is integral.

    count <= bound iff count^(2d) <= 2^(n(d+2)), which is
    `independent_first_holds_exact(count, n, d, 0, 1)`.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    log2 = n * (d + 2) / (2 * d)
    exact = None
    if n * (d + 2) % (2 * d) == 0:
        exact = Fraction(2) ** (n * (d + 2) // (2 * d))
    return BoundReport("kahn", log2, exact_value=exact, constants={"n": n, "d": d})


def conjecture_bound(n: int, d: int) -> BoundReport:
    """(2^(d+1) - 1)^(n/2d): the conjectured extremal count, attained by K_{d,d} unions."""
    if d < 1:
        raise ValueError("need d >= 1")
    base = 2 ** (d + 1) - 1
    log2 = n * math.log2(base) / (2 * d)
    exact = Fraction(base) ** (n // (2 * d)) if n % (2 * d) == 0 else None
    return BoundReport(
        "conjecture_counts", log2, exact_value=exact, constants={"n": n, "d": d}
    )


def conjecture_holds_exact(count: int, n: int, d: int) -> bool:
    """Integer check count^(2d) <= (2^(d+1)-1)^n, avoiding irrational roots."""
    if count < 1 or d < 1:
        raise ValueError("need count >= 1 and d >= 1")
    return count ** (2 * d) <= (2 ** (d + 1) - 1) ** n


# ---------------------------------------------------------------------------
# Regular-graph partition-function bounds (weighted)
# ---------------------------------------------------------------------------


def kdd_weighted_bound(n: int, d: int, activity) -> BoundReport:
    """(2(1+activity)^d - 1)^(n/2d): the conjectured weighted extremal value."""
    if d < 1:
        raise ValueError("need d >= 1")
    lam = Fraction(activity)
    if lam <= 0:
        raise ValueError("activity must be positive")
    base = 2 * (1 + lam) ** d - 1
    log2 = n * log2_fraction(base) / (2 * d)
    exact = base ** (n // (2 * d)) if n % (2 * d) == 0 else None
    return BoundReport(
        "conjecture_weighted",
        log2,
        exact_value=exact,
        constants={"n": n, "d": d, "activity": str(lam)},
    )


def weighted_conjecture_holds_exact(value, n: int, d: int, activity) -> bool:
    """Rational check value^(2d) <= (2(1+activity)^d - 1)^n."""
    if d < 1:
        raise ValueError("need d >= 1")
    lam = Fraction(activity)
    if lam <= 0:
        raise ValueError("activity must be positive")
    return Fraction(value) ** (2 * d) <= (2 * (1 + lam) ** d - 1) ** n


def weighted_kahn_bound(n: int, d: int, activity) -> BoundReport:
    """(1+activity)^(n/2) * 2^(n/d); exact rational when both exponents are integral."""
    if d < 1:
        raise ValueError("need d >= 1")
    lam = Fraction(activity)
    if lam <= 0:
        raise ValueError("activity must be positive")
    log2 = (n / 2) * log2_fraction(1 + lam) + n / d
    exact = None
    if n % 2 == 0 and n % d == 0:
        exact = (1 + lam) ** (n // 2) * Fraction(2) ** (n // d)
    return BoundReport(
        "weighted_kahn",
        log2,
        exact_value=exact,
        constants={"n": n, "d": d, "activity": str(lam)},
    )


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
    always sum to the edge count. The report's exact value is the d-th power
    of the bound (the plain product), which is rational, so the dominance
    check P^d <= product runs in exact arithmetic; the bound's own log2 is in
    constants["bound_log2"].
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
    return BoundReport(
        "order_bound",
        log2_product,
        exact_value=product,
        constants={
            "n": g.n,
            "d": d,
            "activity": str(lam),
            "bound_log2": log2_product / d,
        },
    )


def independent_first_bound(n: int, d: int, alpha: int, activity) -> BoundReport:
    """(1+activity)^(n/2) * 2^((n-alpha)/d), from orders listing an independent set first."""
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
    return BoundReport(
        "independent_first",
        log2,
        exact_value=exact,
        constants={"n": n, "d": d, "alpha": alpha, "activity": str(lam)},
    )


def independent_first_holds_exact(value, n: int, d: int, alpha: int, activity) -> bool:
    """Rational check value^(2d) <= (1+activity)^(nd) * 2^(2(n-alpha)).

    Raising to the 2d-th power clears both fractional exponents, so the
    comparison is exact for rational activity.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if not 0 <= alpha <= n / 2:
        raise ValueError("alpha above n/2 is impossible for a regular graph")
    lam = Fraction(activity)
    lhs = Fraction(value) ** (2 * d)
    rhs = (1 + lam) ** (n * d) * Fraction(2) ** (2 * (n - alpha))
    return lhs <= rhs


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


def fixed_size_bound(n: int, d: int, t: int) -> BoundReport:
    """exp2{(n/2)(H(2t/n) + 2/d)}."""
    if d < 1 or n < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if not 0 <= 2 * t <= n:
        raise ValueError("need 0 <= t <= n/2 for the entropy argument")
    log2 = (n / 2) * (binary_entropy(2 * t / n) + 2 / d)
    return BoundReport("fixed_size", log2, constants={"n": n, "d": d, "t": t})


def fixed_size_rhs(n: int, d: int) -> int:
    """n^(n*d) * 2^(2n), the side of `fixed_size_holds_exact` shared by every t."""
    return n ** (n * d) << (2 * n)


def fixed_size_holds_exact(count: int, n: int, d: int, t: int, rhs: int) -> bool:
    """Integer check count <= fixed_size_bound(n, d, t) (general form).

    (n/2)H(2t/n) = (n/2)log2(n) - t*log2(2t) - ((n-2t)/2)log2(n-2t), so raising
    both sides to the power 2d clears every fractional exponent:
    count^(2d) * (2t)^(2td) * (n-2t)^((n-2t)d) <= n^(nd) * 2^(2n), with
    0^0 = 1. `rhs` is `fixed_size_rhs(n, d)`.
    """
    if d < 1 or n < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if not 0 <= 2 * t <= n:
        raise ValueError("need 0 <= t <= n/2 for the entropy argument")
    rest = n - 2 * t
    return count ** (2 * d) * (2 * t) ** (2 * t * d) * rest ** (rest * d) <= rhs


def kdd_exponent_expansion(d: int) -> tuple[float, float]:
    """Per-(n/2) exponent of the extremal count and its two-term expansion.

    Returns ((1/d)*log2(2^(d+1)-1), 1 + 1/d - 1/((2 ln 2) d 2^d)); the gap
    between the two shrinks rapidly with d but no rate is asserted.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    exact = math.log2(2 ** (d + 1) - 1) / d
    expansion = 1 + 1 / d - 1 / ((2 * math.log(2)) * d * 2 ** d)
    return exact, expansion
