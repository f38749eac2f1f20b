"""Closed-form upper bounds for (weighted) independent-set counts in regular graphs.

Every evaluator returns a BoundReport holding a base-2 logarithm of the bound
("log" is log2 throughout) and the bound's cleared form: integers `power`,
`cleared` and `scale`. A value p/q (an int, or a Fraction in lowest terms)
lies at or below the bound iff

    p**power * scale <= cleared * q**power.

Raising both sides to `power` clears every fractional exponent, and for an
activity a/b the cleared form is built from the integers a and b, so each
verdict is one integer comparison and no irrational root is ever taken.
`BoundReport.judge` applies this rule; nothing else decides a bound. Bounds
that are rational for rational activity also carry the exact value. Each
log2 is taken from a numerator and denominator in lowest terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .graphs import Graph


def log2_fraction(q) -> float:
    """log2 of a positive int or Fraction, stable for values far beyond float range."""
    p, r = q.numerator, q.denominator
    if p <= 0:
        raise ValueError("log2 of a nonpositive value")
    return math.log2(p) - math.log2(r)


def activity_terms(activity) -> tuple[int, int, str]:
    """(a, b, text) for a positive int or Fraction activity a/b in lowest terms;
    text is how the activity prints, as str(Fraction(a, b))."""
    a, b = activity.as_integer_ratio()
    if a <= 0:
        raise ValueError("activity must be positive")
    return a, b, str(a) if b == 1 else f"{a}/{b}"


class BoundReport:
    """A named bound value in log2 domain, its cleared form, and a verdict once judged.

    `exact_value`, when present, is the rational quantity whose log2 equals
    `log2_value`. `order_bound` reports the d-th power of its bound that way
    (the plain product, which is rational); the bound's own log2 is then
    constants["bound_log2"]. `holds_exact`, `margin_log2` and `tight` (value
    equals bound, not serialised) stay None until `judge` sets them.
    """

    __slots__ = ("name", "log2_value", "power", "cleared", "scale", "exact_value", "constants",
                 "holds_exact", "margin_log2", "tight")

    def __init__(self, name, log2_value, power, cleared, scale=1, exact_value=None, constants=None):
        self.name = name
        self.log2_value = log2_value
        self.power = power
        self.cleared = cleared
        self.scale = scale
        self.exact_value = exact_value
        self.constants = {} if constants is None else constants
        self.holds_exact = self.margin_log2 = self.tight = None

    def judge(self, value, value_log2: float) -> BoundReport:
        """Decide value <= bound for an int or Fraction value by the cleared form,
        set the margin log2(bound) - value_log2 (exactly 0.0 at equality, where
        the floats may round apart) and the equality flag, and return the report."""
        q = value.denominator
        lhs = value.numerator**self.power * self.scale
        rhs = self.cleared if q == 1 else self.cleared * q**self.power
        self.holds_exact = lhs <= rhs
        self.tight = lhs == rhs
        bound_log2 = self.constants.get("bound_log2", self.log2_value)
        self.margin_log2 = 0.0 if self.tight else bound_log2 - value_log2
        return self

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "log2_value": self.log2_value}
        if self.exact_value is not None:
            out["exact_value"] = str(self.exact_value)
        if self.holds_exact is not None:
            out["holds_exact"] = self.holds_exact
        out["constants"] = self.constants
        return out


def exact_report(name: str, num: int, den: int, **constants) -> BoundReport:
    """The bound num/den, which is its own cleared form: power 1, and the
    exact value's numerator and denominator as `cleared` and `scale`."""
    exact = Fraction(num, den)
    cleared, scale = exact.numerator, exact.denominator
    return BoundReport(name, log2_fraction(exact), 1, cleared, scale, exact, constants=constants)


# ---------------------------------------------------------------------------
# Bounds in terms of the independence number
# ---------------------------------------------------------------------------


def alekseev_weighted_bound(n: int, alpha: int, activity) -> BoundReport:
    """(1 + activity*n/alpha)^alpha; equality iff a union of equal-order cliques.

    For activity a/b the bound is ((alpha*b + a*n) / (alpha*b))^alpha. At
    activity 1 it is Alekseev's count bound (1 + n/alpha)^alpha.
    """
    if not 1 <= alpha <= n:
        raise ValueError("need 1 <= alpha <= n")
    a, b, text = activity_terms(activity)
    den = alpha * b
    return exact_report(
        "alekseev_weighted", (den + a * n) ** alpha, den**alpha, n=n, alpha=alpha, activity=text
    )


# ---------------------------------------------------------------------------
# Regular-graph bounds
# ---------------------------------------------------------------------------


def kahn_bound(n: int, d: int) -> BoundReport:
    """exp2{(n/2)(1 + 2/d)}; exact power of two when the exponent is integral.

    Cleared form: count^(2d) <= 2^(n(d+2)).

    This is `independent_first_bound(n, d, 0, 1)` computed on its own: that
    form has no exact value when n is odd (on C_5 this one is exactly 32), and
    its log2 differs from this one in the last bit on 188 of the 4,212 pairs
    n <= 128, d < min(n, 40).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    log2 = n * (d + 2) / (2 * d)
    exact = None
    if n * (d + 2) % (2 * d) == 0:
        exact = Fraction(1 << n * (d + 2) // (2 * d))
    cleared = 1 << n * (d + 2)
    return BoundReport("kahn", log2, 2 * d, cleared, exact_value=exact, constants={"n": n, "d": d})


def kdd_weighted_bound(n: int, d: int, activity) -> BoundReport:
    """(2(1+activity)^d - 1)^(n/2d): the weighted extremal value, attained by K_{d,d} unions.

    At activity 1 it is the conjectured count (2^(d+1) - 1)^(n/2d). For
    activity a/b the base is (2(a+b)^d - b^d) / b^d, so the cleared form is
    value^(2d) * b^(dn) <= (2(a+b)^d - b^d)^n, with the base in lowest terms.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    a, b, text = activity_terms(activity)
    num, den = 2 * (a + b) ** d - b**d, b**d
    g = math.gcd(num, den)
    num, den = num // g, den // g
    log2 = n * (math.log2(num) - math.log2(den)) / (2 * d)
    m, rest = divmod(n, 2 * d)
    exact = None if rest else Fraction(num**m, den**m)
    constants = {"n": n, "d": d, "activity": text}
    return BoundReport(
        "conjecture_weighted", log2, 2 * d, num**n, den**n, exact_value=exact, constants=constants
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


def order_numerators(hists: list, activity, edge_count: int) -> tuple[list[int], int]:
    """prod_v (2(1+activity)^p(v) - 1) of each p-value histogram, as numerators over b^E.

    For activity a/b each factor is (2(a+b)^p - b^p) / b^p and the p-values
    sum to the edge count E, so a product is prod_p (2(a+b)^p - b^p)^h_p / b^E.
    Returns (numerators, b^E).
    """
    a, b = activity.as_integer_ratio()
    factors = [2 * (a + b) ** p - b**p for p in range(max(map(len, hists), default=0))]
    nums = [math.prod(map(pow, factors, hist)) for hist in hists]
    return nums, b**edge_count


def order_report(num: int, scale: int, activity, n: int, d: int) -> BoundReport:
    """The order bound with product num / scale: cleared form P^d * scale <= num,
    the product as exact value, and the bound's own log2 in constants["bound_log2"].
    The activity is recorded as str(activity)."""
    product = Fraction(num, scale)
    log2_product = log2_fraction(product)
    constants = {"n": n, "d": d, "activity": str(activity), "bound_log2": log2_product / d}
    return BoundReport(
        "order_bound", log2_product, d, num, scale, exact_value=product, constants=constants
    )


def order_bound(g: Graph, order, activity) -> BoundReport:
    """Total-order bound: prod_v (2(1+activity)^(p(v)) - 1)^(1/d).

    p(v) counts the neighbors of v that precede it in the order; the p-values
    always sum to the edge count.
    """
    d = g.regular_degree()
    if d is None or d < 1:
        raise ValueError("order bound requires a d-regular graph with d >= 1")
    perm = list(order)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("order must be a permutation of the vertices")
    text = activity_terms(activity)[2]
    hist = order_histogram(g, perm, d)
    if sum(p * h for p, h in enumerate(hist)) != g.edge_count():
        raise AssertionError("order p-values must sum to the edge count")
    (num,), scale = order_numerators([hist], activity, g.edge_count())
    return order_report(num, scale, text, g.n, d)


def independent_first_bound(n: int, d: int, alpha: int, activity) -> BoundReport:
    """(1+activity)^(n/2) * 2^((n-alpha)/d), from orders listing an independent set first.

    At alpha = 0 it is Kahn's weighted bound (1+activity)^(n/2) * 2^(n/d).

    For activity a/b, 1 + activity = (a+b)/b in lowest terms, and the cleared
    form is value^(2d) * b^(nd) <= (a+b)^(nd) * 2^(2(n-alpha)).
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if not 0 <= alpha <= n / 2:
        raise ValueError("alpha above n/2 is impossible for a regular graph")
    a, b, text = activity_terms(activity)
    log2 = (n / 2) * (math.log2(a + b) - math.log2(b)) + (n - alpha) / d
    exact = None
    if n % 2 == 0 and (n - alpha) % d == 0:
        exact = Fraction((a + b) ** (n // 2) << (n - alpha) // d, b ** (n // 2))
    cleared = (a + b) ** (n * d) << 2 * (n - alpha)
    constants = {"n": n, "d": d, "alpha": alpha, "activity": text}
    return BoundReport(
        "independent_first", log2, 2 * d, cleared, b ** (n * d), exact, constants=constants
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
