"""Closed-form bound evaluators and exact dominance checks."""

import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indsets.bounds import (
    alekseev_bound,
    alekseev_weighted_bound,
    binary_entropy,
    conjecture_bound,
    fixed_size_bound,
    fixed_size_rhs,
    independent_first_bound,
    kahn_bound,
    kdd_weighted_bound,
    log2_fraction,
    order_bound,
    order_numerators,
    order_report,
    weighted_kahn_bound,
)
from indsets.cover import cover_count_bound
from indsets.graphs import build_graph, gen_complete_bipartite, gen_cycle
from indsets.polynomial import independence_polynomial

HALF = Fraction(1, 2)


def holds(report, value):
    """report's exact verdict on value, through its cleared form."""
    return report.judge(value, log2_fraction(Fraction(value))).holds_exact


def test_alekseev_examples():
    rep = alekseev_bound(5, 2)
    assert rep.exact_value == Fraction(49, 4)
    assert rep.exact_value >= independence_polynomial(gen_cycle(5)).total()
    assert alekseev_bound(4, 2).exact_value == 9  # 3^d at d=2
    assert 9 >= independence_polynomial(gen_complete_bipartite(2)).total() == 7
    assert alekseev_bound(1, 1).exact_value == 2
    with pytest.raises(ValueError):
        alekseev_bound(5, 0)


def test_alekseev_weighted_examples():
    # Union of two K_3: equality at every activity.
    two_k3 = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    p = independence_polynomial(two_k3)
    rep = alekseev_weighted_bound(6, 2, 1)
    assert rep.exact_value == 16 == p.evaluate(1)
    # Activity 1 reduces to the unweighted bound.
    assert alekseev_weighted_bound(5, 2, 1).exact_value == alekseev_bound(5, 2).exact_value
    rep = alekseev_weighted_bound(5, 2, HALF)
    assert rep.exact_value == Fraction(81, 16)
    assert rep.exact_value >= independence_polynomial(gen_cycle(5)).evaluate(HALF)


def test_kahn_examples():
    rep = kahn_bound(5, 2)
    assert rep.exact_value == 32
    assert rep.exact_value >= independence_polynomial(gen_cycle(5)).total()
    rep = kahn_bound(10, 3)
    assert rep.exact_value is None
    assert rep.log2_value == pytest.approx(25 / 3, rel=1e-12)
    assert 2 ** rep.log2_value >= 76
    for d in range(1, 21):
        assert kahn_bound(2 * d, d).log2_value >= conjecture_bound(2 * d, d).log2_value


def test_conjecture_exact_checks():
    assert 11 ** 4 == 14641 <= 16807 == 7 ** 5
    assert holds(conjecture_bound(5, 2), 11)
    assert holds(conjecture_bound(6, 3), 15)
    assert 15 ** 6 == (2 ** 4 - 1) ** 6  # equality on K_{3,3}
    assert conjecture_bound(6, 3).judge(15, math.log2(15)).tight
    assert not conjecture_bound(5, 2).judge(11, math.log2(11)).tight
    assert holds(conjecture_bound(10, 3), 76)
    assert not holds(conjecture_bound(5, 2), 2 ** 6)  # trivial upper bound is above


def test_weighted_conjecture_checks():
    for d in (1, 2, 3, 5):
        for lam in (HALF, Fraction(1), Fraction(2)):
            value = independence_polynomial(gen_complete_bipartite(d)).evaluate(lam)
            base = 2 * (1 + lam) ** d - 1
            assert value == base
            report = kdd_weighted_bound(2 * d, d, lam).judge(value, log2_fraction(value))
            assert report.holds_exact and report.tight  # equality case
    # C_5 at activity 1 reduces to the counting check.
    assert kdd_weighted_bound(5, 2, 1).cleared == conjecture_bound(5, 2).cleared
    assert holds(kdd_weighted_bound(5, 2, 1), 11) == holds(conjecture_bound(5, 2), 11)
    assert Fraction(19, 4) ** 4 == Fraction(130321, 256)
    assert Fraction(130321, 256) <= Fraction(16807, 32) == Fraction(7, 2) ** 5
    assert holds(kdd_weighted_bound(5, 2, HALF), Fraction(19, 4))


def test_weighted_kahn_examples():
    assert weighted_kahn_bound(6, 3, 1).log2_value == pytest.approx(
        kahn_bound(6, 3).log2_value, rel=1e-12
    )
    rep = weighted_kahn_bound(4, 2, 1)
    assert rep.exact_value == 16
    assert rep.exact_value >= independence_polynomial(gen_cycle(4)).total() == 7
    rep = weighted_kahn_bound(10, 5, 2)
    assert rep.exact_value == 972 == 3 ** 5 * 4


def test_order_bound_c4_equality():
    c4 = gen_cycle(4)
    rep = order_bound(c4, [0, 2, 1, 3], 1)
    assert rep.exact_value == 49
    assert rep.exact_value == independence_polynomial(c4).total() ** 2


def test_order_bound_k2():
    rep = order_bound(build_graph(2, [(0, 1)]), [0, 1], 1)
    assert rep.exact_value == 3 == independence_polynomial(build_graph(2, [(0, 1)])).total()


def test_order_bound_c5_natural_order():
    # Precursor counts along 0,1,2,3,4 are (0,1,1,1,2): terms 1,3,3,3,7.
    rep = order_bound(gen_cycle(5), [0, 1, 2, 3, 4], 1)
    assert rep.exact_value == 1 * 3 * 3 * 3 * 7 == 189
    assert rep.exact_value >= 11 ** 2
    assert rep.constants["bound_log2"] == pytest.approx(math.log2(189) / 2, rel=1e-12)


def test_order_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        order_bound(build_graph(3, [(0, 1)]), [0, 1, 2], 1)  # not regular
    with pytest.raises(ValueError):
        order_bound(gen_cycle(4), [0, 1, 2], 1)  # not a permutation


def test_independent_first_examples():
    rep = independent_first_bound(4, 2, 2, 1)
    assert rep.exact_value == 8
    assert rep.exact_value >= independence_polynomial(gen_cycle(4)).total() == 7
    # alpha = 0 degenerates to the weighted-kahn value.
    assert independent_first_bound(10, 5, 0, 2).log2_value == pytest.approx(
        weighted_kahn_bound(10, 5, 2).log2_value, rel=1e-12
    )
    # alpha = n/2 specialization.
    rep = independent_first_bound(8, 2, 4, 1)
    assert rep.log2_value == pytest.approx(4 + 2, rel=1e-12)
    with pytest.raises(ValueError):
        independent_first_bound(4, 2, 3, 1)


def test_independent_first_exact_check():
    p = independence_polynomial(gen_cycle(4))
    for lam in (HALF, Fraction(1), Fraction(2)):
        assert holds(independent_first_bound(4, 2, 2, lam), p.evaluate(lam))
    assert not holds(independent_first_bound(4, 2, 2, 1), 10 ** 9)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    expected = -0.4 * math.log2(0.4) - 0.6 * math.log2(0.6)
    assert binary_entropy(0.4) == pytest.approx(expected, rel=1e-15)
    assert binary_entropy(0.4) == pytest.approx(0.97095, abs=1e-5)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


@given(st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_binary_entropy_symmetry(x):
    assert abs(binary_entropy(x) - binary_entropy(1 - x)) <= 1e-12


def test_fixed_size_bound_examples():
    rep = fixed_size_bound(10, 3, 2)
    expected = 5 * ((-0.4 * math.log2(0.4) - 0.6 * math.log2(0.6)) + 2 / 3)
    assert rep.log2_value == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        fixed_size_bound(10, 3, 6)


def test_fixed_size_dominates_petersen_coefficients():
    from indsets.graphs import gen_petersen

    poly = independence_polynomial(gen_petersen())
    for t in range(poly.degree + 1):
        bound = fixed_size_bound(10, 3, t).log2_value
        assert math.log2(poly.coefficient(t)) <= bound


def largest_accepted(report) -> int:
    """The largest count the report's cleared form accepts, found by bisection."""
    lo, hi = 0, 1
    while holds(report, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(report, mid) else (lo, mid)
    assert holds(report, lo) and not holds(report, lo + 1)
    return lo


def floor_root(base: int, num: int, den: int) -> int:
    """floor(base^(num/den)), through 80-digit decimals (enough for the cases below)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        return int(decimal.Decimal(base) ** (decimal.Decimal(num) / den))


@pytest.mark.parametrize(
    "n, d, t",
    [(10, 3, 0), (10, 3, 2), (10, 3, 5), (20, 4, 3), (28, 5, 7), (48, 5, 11), (64, 3, 16), (64, 7, 32)],
)
def test_fixed_size_exact_threshold(n, d, t):
    # c is the largest count the cleared form accepts, and the same with the
    # right side passed in once per graph.
    c = largest_accepted(fixed_size_bound(n, d, t))
    assert c == largest_accepted(fixed_size_bound(n, d, t, fixed_size_rhs(n, d)))
    # c is floor(2^bound); compared with the float bound up to its rounding.
    bound_log2 = fixed_size_bound(n, d, t).log2_value
    tol = 1e-12 * max(1.0, bound_log2)
    assert math.log2(c) <= bound_log2 + tol and bound_log2 - tol < math.log2(c + 1)


@pytest.mark.parametrize(
    "n, d",
    [(6, 1), (5, 2), (10, 3), (12, 3), (14, 4), (20, 4), (28, 5), (64, 3), (64, 7)],
)
def test_kahn_exact_threshold(n, d):
    # Kahn's count bound clears to count^(2d) <= 2^(n(d+2)). The largest
    # count c it accepts must be floor(2^(n(d+2)/(2d))); 2d divides n(d+2)
    # only for (6, 1), (5, 2), (12, 3) and (20, 4).
    c = largest_accepted(kahn_bound(n, d))
    assert c == floor_root(2, n * (d + 2), 2 * d)
    exponent, rest = divmod(n * (d + 2), 2 * d)
    if rest == 0:
        assert c == 2**exponent == kahn_bound(n, d).exact_value


@pytest.mark.parametrize(
    "n, d",
    [(5, 2), (6, 3), (10, 3), (12, 3), (14, 4), (20, 4), (28, 5), (64, 3), (64, 7)],
)
def test_conjecture_exact_threshold(n, d):
    # The extremal count clears to count^(2d) <= (2^(d+1)-1)^n: the largest
    # count accepted is floor((2^(d+1)-1)^(n/(2d))), exact when 2d divides n.
    c = largest_accepted(conjecture_bound(n, d))
    assert c == floor_root(2 ** (d + 1) - 1, n, 2 * d)
    if n % (2 * d) == 0:
        assert c == conjecture_bound(n, d).exact_value


def test_fixed_size_exact_rejects_bad_input():
    with pytest.raises(ValueError):
        fixed_size_bound(10, 3, 6)  # t > n/2
    with pytest.raises(ValueError):
        fixed_size_bound(10, 0, 2)  # d = 0


def test_reports_log2_matches_exact_value():
    reports = [
        alekseev_bound(9, 3),
        alekseev_weighted_bound(9, 3, HALF),
        kahn_bound(8, 2),
        conjecture_bound(12, 3),
        kdd_weighted_bound(12, 3, Fraction(2)),
        weighted_kahn_bound(12, 3, HALF),
        independent_first_bound(12, 3, 6, 1),
        order_bound(gen_cycle(6), [0, 1, 2, 3, 4, 5], HALF),
    ]
    for rep in reports:
        assert rep.exact_value is not None
        assert rep.log2_value == pytest.approx(log2_fraction(rep.exact_value), rel=1e-9)


def test_report_serialization_shape():
    rep = kahn_bound(5, 2).judge(11, math.log2(11))
    doc = rep.to_dict()
    assert set(doc) == {"name", "log2_value", "exact_value", "holds_exact", "constants"}
    assert doc["exact_value"] == "32"
    doc = fixed_size_bound(10, 3, 2).to_dict()
    assert set(doc) == {"name", "log2_value", "constants"}
    assert doc["constants"] == {"n": 10, "d": 3, "t": 2}


def test_log2_fraction_huge_values():
    q = Fraction(3 ** 2000, 2 ** 1500)
    assert log2_fraction(q) == pytest.approx(2000 * math.log2(3) - 1500, rel=1e-12)
    with pytest.raises(ValueError):
        log2_fraction(Fraction(0))


def iroot(x: int, k: int) -> int:
    """floor(x^(1/k)) for x >= 0, by bisection."""
    lo, hi = 0, 1 << -(-x.bit_length() // k)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**k <= x else (lo, mid - 1)
    return lo


def rational_root(r: Fraction, k: int):
    """r^(1/k) when it is rational, else None."""
    root = Fraction(iroot(r.numerator, k), iroot(r.denominator, k))
    return root if root**k == r else None


def closed_forms(n, d, alpha, t, phi, lam, hist):
    """(report, power, bound^power, log2_value) of every evaluator. bound^power is
    the bound's closed form in Fraction arithmetic; log2_value is the float the
    report must carry, as the closed form's lowest terms give it."""
    one = 1 + lam
    kdd_base = 2 * one**d - 1
    weighted_first = (n / 2) * log2_fraction(one)
    rows = [
        (alekseev_bound(n, alpha), 1, (1 + Fraction(n, alpha)) ** alpha, None),
        (alekseev_weighted_bound(n, alpha, lam), 1, (1 + lam * n / alpha) ** alpha, None),
        (kahn_bound(n, d), 2 * d, Fraction(2) ** (n * (d + 2)), n * (d + 2) / (2 * d)),
        (
            conjecture_bound(n, d),
            2 * d,
            Fraction(2 ** (d + 1) - 1) ** n,
            n * math.log2(2 ** (d + 1) - 1) / (2 * d),
        ),
        (kdd_weighted_bound(n, d, lam), 2 * d, kdd_base**n, n * log2_fraction(kdd_base) / (2 * d)),
        (weighted_kahn_bound(n, d, lam), 2 * d, one ** (n * d) * 4**n, weighted_first + n / d),
        (
            independent_first_bound(n, d, alpha, lam),
            2 * d,
            one ** (n * d) * 4 ** (n - alpha),
            weighted_first + (n - alpha) / d,
        ),
        (
            # (n/2) H(2t/n) = log2 of n^(n/2) / ((2t)^t (n-2t)^((n-2t)/2)), with 0^0 = 1.
            fixed_size_bound(n, d, t),
            2 * d,
            Fraction(n**n, (2 * t) ** (2 * t) * (n - 2 * t) ** (n - 2 * t)) ** d * 4**n,
            (n / 2) * (binary_entropy(2 * t / n) + 2 / d),
        ),
    ]
    product = math.prod((2 * one**p - 1) ** h for p, h in enumerate(hist))
    (num,), scale = order_numerators([hist], lam, sum(p * h for p, h in enumerate(hist)))
    rows.append((order_report(num, scale, lam, n, d), d, product, log2_fraction(product)))
    if phi is not None:
        seeds = sum(math.comb(n, s) for s in range(n // phi + 1))
        bound = seeds * (1 + lam * n * d / ((2 * d - phi) * alpha)) ** alpha
        rows.append((cover_count_bound(n, d, alpha, lam, phi), 1, bound, None))
    return [
        (rep, power, r, log2_fraction(r) if log2 is None else log2)
        for rep, power, r, log2 in rows
    ]


@st.composite
def bound_parameters(draw):
    d = draw(st.integers(1, 5))
    # Multiples of 2d make the K_{d,d} and Kahn bounds rational.
    n = draw(st.sampled_from([2 * d, 4 * d]) | st.integers(max(2, d), 16))
    alpha = draw(st.integers(1, n // 2))
    t = draw(st.integers(0, n // 2))
    phi = draw(st.integers(1, d - 1)) if d >= 2 else None
    lam = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 12)))
    hist = draw(st.lists(st.integers(0, 3), min_size=d + 1, max_size=d + 1))
    return n, d, alpha, t, phi, lam, hist


@given(bound_parameters())
@example((4, 1, 1, 0, None, Fraction(9, 2), [1, 1]))  # K_{1,1} base 20/2: log2 needs lowest terms
@settings(max_examples=150, deadline=None)
def test_integer_judge_matches_fraction_oracle(params):
    # Each row is probed at three values 1/m apart around its bound: the middle
    # one is the largest multiple of 1/m at or below the bound, and is the
    # bound itself when the bound is rational (m is then twice its
    # denominator). The verdict and the equality flag must be the closed
    # form's, decided here in Fraction arithmetic.
    for rep, power, r, log2 in closed_forms(*params):
        assert rep.power == power and type(rep.cleared) is int and type(rep.scale) is int
        assert rep.log2_value == log2, rep.name
        root = rational_root(r, power)
        if rep.exact_value is not None:
            assert rep.exact_value == (r if rep.name == "order_bound" else root), rep.name
        m = 12 if root is None else 2 * root.denominator
        top = iroot(math.floor(r * m**power), power)
        for step in (-1, 0, 1):
            value = Fraction(top + step, m)
            rep.judge(value, log2_fraction(value))
            assert rep.holds_exact == (value**power <= r), (rep.name, value)
            assert rep.tight == (value**power == r), (rep.name, value)
            if root is not None and step == 0:
                assert rep.tight and rep.margin_log2 == 0.0, rep.name
