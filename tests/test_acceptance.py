"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every expected value is either produced by an independent oracle
(subset enumeration, convolution of enumerated factors, direct arithmetic)
or checked in exact integer/rational arithmetic at the stated tolerance.
"""

import json
import math
import random
import time
from fractions import Fraction

from indsets.bounds import (
    fixed_size_bound,
    independent_first_bound,
    kdd_weighted_bound,
    log2_fraction,
    order_bound,
)
from indsets.cli import main
from indsets.cover import build_cover, cover_count_bound, verify_cover
from indsets.graphs import (
    build_graph,
    disjoint_union,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_petersen,
    gen_random_regular,
    is_union_of_equal_cliques,
    max_independent_set,
)
from indsets.harness import random_maximal_independent_set
from indsets.polynomial import (
    IndependencePolynomial,
    brute_force_polynomial,
    independence_polynomial,
)

LAMBDAS = (Fraction(1, 2), Fraction(1), Fraction(2))


def _criterion(label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def poly_product(p, q):
    """Polynomial of a disjoint union: the coefficient convolution."""
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return IndependencePolynomial(p.n + q.n, tuple(out))


def kdd_union_polynomial(m, d):
    """Polynomial of m disjoint copies of K_{d,d}: (2(1 + x)^d - 1)^m by convolution."""
    kdd = IndependencePolynomial(2 * d, (1, *(2 * math.comb(d, t) for t in range(1, d + 1))))
    out = kdd
    for _ in range(m - 1):
        out = poly_product(out, kdd)
    return out


def _holds(report, value):
    return report.judge(value, log2_fraction(Fraction(value))).holds_exact


def _random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def _seeded_regulars(count, degrees, n_cap, tag):
    # Stay in the sparse regime (n >= 2d + 2) where the pairing model accepts
    # a simple realization quickly.
    rng = random.Random(f"acceptance:{tag}")
    graphs = []
    while len(graphs) < count:
        d = rng.choice(degrees)
        allowed = [k for k in range(2 * d + 2, n_cap + 1) if (k * d) % 2 == 0]
        n = rng.choice(allowed)
        graphs.append(gen_random_regular(n, d, rng.randrange(10 ** 9)))
    return graphs


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random("acceptance:oracle")
    graphs = []
    for _ in range(200):
        n = rng.randint(4, 18)
        p = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9])
        graphs.append(_random_graph(n, p, rng))
    graphs += [gen_cycle(n) for n in range(3, 13)]
    graphs += [gen_complete(n) for n in range(1, 9)]
    graphs.append(gen_petersen())
    graphs += [gen_complete_bipartite(d) for d in range(1, 7)]
    for g in graphs:
        assert independence_polynomial(g) == brute_force_polynomial(g)
    elapsed = time.monotonic() - start
    _criterion(
        "criterion 1: recurrence equals enumeration oracle on 224 graphs",
        elapsed <= 60.0,
        f"{elapsed:.1f}s <= 60s",
    )


def test_criterion_2_extremal_counts():
    start = time.monotonic()
    for d in range(1, 9):
        copy = gen_complete_bipartite(d)
        poly = independence_polynomial(copy)
        for lam in LAMBDAS:
            assert poly.evaluate(lam) == 2 * (1 + lam) ** d - 1
        g = copy
        for m in range(1, 4):
            assert independence_polynomial(g).total() == (2 ** (d + 1) - 1) ** m
            if m < 3:
                g = disjoint_union(g, copy)
    elapsed = time.monotonic() - start
    _criterion(
        "criterion 2: extremal union counts and weighted values exact",
        elapsed <= 5.0,
        f"d <= 8, m <= 3, {elapsed:.1f}s <= 5s",
    )


def _cycle_partitions(n, minimum=3):
    for part in range(minimum, n + 1):
        rest = n - part
        if rest == 0:
            yield (part,)
        elif rest >= part:
            for tail in _cycle_partitions(rest, part):
                yield (part,) + tail


def test_criterion_3_conjecture_certification():
    start = time.monotonic()
    checked = 0

    # All cycle unions on up to 16 vertices; counts cross-checked against the
    # convolution of per-cycle enumeration oracles.
    for n in range(3, 17):
        for parts in _cycle_partitions(n):
            g = gen_cycle(parts[0])
            expected = brute_force_polynomial(gen_cycle(parts[0]))
            for part in parts[1:]:
                g = disjoint_union(g, gen_cycle(part))
                expected = poly_product(expected, brute_force_polynomial(gen_cycle(part)))
            poly = independence_polynomial(g)
            assert poly == expected
            assert _holds(kdd_weighted_bound(n, 2, 1), poly.total())
            checked += 1

    # 1000 seeded random d-regular graphs for each d in {3, 4, 5}, n <= 20.
    for d in (3, 4, 5):
        rng = random.Random(f"acceptance:conjecture:{d}")
        allowed = [k for k in range(2 * d + 2, 21) if (k * d) % 2 == 0]
        for _ in range(1000):
            n = rng.choice(allowed)
            g = gen_random_regular(n, d, rng.randrange(10 ** 9))
            total = independence_polynomial(g).total()
            assert _holds(kdd_weighted_bound(n, d, 1), total)
            checked += 1

    # Complete graphs K_{d+1} for d <= 10 (i = d + 2).
    for d in range(1, 11):
        total = independence_polynomial(gen_complete(d + 1)).total()
        assert total == d + 2
        assert _holds(kdd_weighted_bound(d + 1, d, 1), total)
        checked += 1

    elapsed = time.monotonic() - start
    _criterion(
        "criterion 3: conjectured count bound certified with zero counterexamples",
        elapsed <= 600.0,
        f"{checked} graphs, {elapsed:.1f}s <= 600s",
    )


def test_criterion_4_order_bound_exact():
    graphs = _seeded_regulars(100, (2, 3, 4, 5), 16, "orders")
    rng = random.Random("acceptance:orders:perms")
    for g in graphs:
        d = g.regular_degree()
        poly = independence_polynomial(g)
        values = {lam: poly.evaluate(lam) for lam in LAMBDAS}
        for _ in range(20):
            perm = rng.sample(range(g.n), g.n)
            for lam in LAMBDAS:
                report = order_bound(g, perm, lam)
                assert values[lam] ** d <= report.exact_value

    # Independent-first order on C_4 reproduces equality at activity 1.
    c4 = gen_cycle(4)
    report = order_bound(c4, [0, 2, 1, 3], 1)
    assert report.exact_value == 49 == independence_polynomial(c4).total() ** 2
    _criterion(
        "criterion 4: ordering bound exact on 100 graphs x 20 orders x 3 activities",
        True,
        "equality 49 reproduced on C_4",
    )


def test_criterion_5_weighted_alekseev_and_equality():
    # Equality exactly on unions of equal-order complete graphs.
    for k in range(1, 6):
        for m in range(1, 5):
            g = gen_complete(k)
            for _ in range(m - 1):
                g = disjoint_union(g, gen_complete(k))
            assert is_union_of_equal_cliques(g)
            poly = independence_polynomial(g)
            for lam in LAMBDAS:
                bound = (1 + lam * g.n / m) ** m
                assert poly.evaluate(lam) == bound

    # Strict inequality on 50 seeded graphs that are not such unions.
    rng = random.Random("acceptance:alekseev")
    kept = 0
    while kept < 50:
        n = rng.randint(4, 14)
        g = _random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]), rng)
        if is_union_of_equal_cliques(g):
            continue
        alpha = max_independent_set(g).bit_count()
        poly = independence_polynomial(g)
        for lam in LAMBDAS:
            bound = (1 + lam * n / alpha) ** alpha
            assert poly.evaluate(lam) < bound
        kept += 1
    _criterion(
        "criterion 5: weighted independence-number bound with equality exactly on clique unions",
        True,
        "k <= 5, m <= 4 equal; 50 non-unions strict",
    )


def test_criterion_6_cover_certificates():
    rng = random.Random("acceptance:cover")
    triples = 0
    while triples < 500:
        d = rng.choice([3, 4, 5])
        allowed = [k for k in range(2 * d + 2, 25) if (k * d) % 2 == 0]
        n = rng.choice(allowed)
        g = gen_random_regular(n, d, rng.randrange(10 ** 9))
        independent = random_maximal_independent_set(g, rng)
        phi = rng.randrange(1, d)
        cert = build_cover(g, independent, phi)
        ok, reason = verify_cover(g, cert)
        assert ok, reason
        assert cert.seed.bit_count() * phi <= n
        assert cert.independent_set & ~cert.envelope == 0
        assert cert.envelope.bit_count() * (2 * d - phi) <= n * d

        alpha = max_independent_set(g).bit_count()
        poly = independence_polynomial(g)
        for lam in LAMBDAS:
            report = cover_count_bound(n, d, alpha, lam, phi)
            assert poly.evaluate(lam) <= report.exact_value
        triples += 1
    _criterion(
        "criterion 6: 500 cover certificates verified; exact cover bound dominates",
        True,
    )


def test_criterion_7_independent_first_branch():
    corpus = [gen_cycle(n) for n in range(3, 13)]
    corpus += [gen_complete_bipartite(d) for d in range(1, 6)]
    corpus += [gen_complete(n) for n in range(2, 9)]
    corpus.append(gen_petersen())
    corpus += _seeded_regulars(60, (1, 2, 3, 4, 5), 18, "branch")
    for g in corpus:
        d = g.regular_degree()
        assert d is not None and d >= 1
        alpha = max_independent_set(g).bit_count()
        poly = independence_polynomial(g)
        for lam in LAMBDAS:
            assert _holds(independent_first_bound(g.n, d, alpha, lam), poly.evaluate(lam))
    _criterion(
        "criterion 7: independent-first bound dominates exactly on the regular corpus",
        True,
        f"{len(corpus)} graphs x 3 activities",
    )


def test_criterion_9_fixed_size_bounds():
    corpus = [gen_petersen()]
    rng = random.Random("acceptance:fixed")
    while len(corpus) < 101:
        n = rng.choice([8, 10, 12, 14, 16])
        corpus.append(gen_random_regular(n, 3, rng.randrange(10 ** 9)))
    min_margin = math.inf
    coefficientwise = 0
    for g in corpus:
        d = g.regular_degree()
        poly = independence_polynomial(g)
        for t in range(poly.degree + 1):
            bound = fixed_size_bound(g.n, d, t).log2_value
            margin = bound - math.log2(poly.coefficient(t))
            min_margin = min(min_margin, margin)
            assert margin >= 0
        if g.n % (2 * d) == 0:
            target = kdd_union_polynomial(g.n // (2 * d), d)
            for t in range(poly.degree + 1):
                assert poly.coefficient(t) <= target.coefficient(t)
            coefficientwise += 1
    assert coefficientwise > 0
    _criterion(
        "criterion 9: fixed-size bound dominates every coefficient",
        True,
        f"min margin {min_margin:.3f} log2; coefficientwise check on "
        f"{coefficientwise} graphs with 2d | n",
    )


def test_criterion_10_determinism(tmp_path):
    corpus = [
        "gen:cycle:9",
        "gen:petersen",
        "gen:rr:14:3:3",
        "gen:kdd:3",
        "gen:union:cycle:3+cycle:5",
    ]
    args = ["verify", *corpus, "--seed", "1", "--orders", "5"]
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    ok = code1 == code2 == 0 and out1.read_bytes() == out2.read_bytes()
    _criterion(
        "criterion 10: repeated verify runs produce byte-identical reports",
        ok,
        f"{len(out1.read_bytes())} bytes each",
    )


def test_acceptance_report_artifacts(tmp_path):
    # The report subcommand renders the verify output deterministically.
    report = tmp_path / "report.json"
    assert main(["verify", "gen:cycle:5", "gen:kdd:3", "--orders", "3", "--out", str(report)]) == 0
    csv_path = tmp_path / "report.csv"
    assert main(["report", str(report), "--format", "csv", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3
    doc = json.loads(report.read_text())
    assert all(not rec["counterexample"] for rec in doc["records"])
