"""Seed/envelope cover construction, verification, and counting bounds."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from indsets.cover import (
    CoverCertificate,
    build_cover,
    cover_count_bound,
    phi_default,
    verify_cover,
)
from indsets.graphs import (
    gen_complete_bipartite,
    gen_cycle,
    gen_petersen,
    gen_random_regular,
    graph_stats,
    is_independent,
    mask_of,
)
from indsets.harness import random_maximal_independent_set
from indsets.polynomial import independence_polynomial

HALF = Fraction(1, 2)
LAMBDAS = (HALF, Fraction(1), Fraction(2))


def test_phi_default_values():
    assert phi_default(2) == 1
    assert phi_default(4) == 2
    assert phi_default(16) == 8
    assert 1 <= phi_default(3) <= 2
    for d in range(2, 40):
        assert 1 <= phi_default(d) <= d - 1
    with pytest.raises(ValueError):
        phi_default(1)


def test_build_cover_c5_hand_trace():
    g = gen_cycle(5)
    cert = build_cover(g, mask_of([0, 2]), 1)
    assert cert.seed == mask_of([0, 2])
    assert cert.envelope == mask_of([0, 2])
    assert cert.trace == (0, 2)
    assert cert.seed.bit_count() * 1 <= 5
    assert cert.envelope.bit_count() * (4 - 1) <= 5 * 2
    ok, reason = verify_cover(g, cert)
    assert ok, reason


def test_build_cover_kdd_side():
    # All of one side shares the seed vertex's neighborhood, so the seed stays
    # a singleton and the envelope is exactly that side.
    for d in (3, 4):
        g = gen_complete_bipartite(d)
        side = mask_of(range(d))
        for phi in range(1, d):
            cert = build_cover(g, side, phi)
            assert cert.trace == (0,)
            assert cert.seed == 1
            assert cert.envelope == side
            assert d * (2 * d - phi) <= 2 * d * d
            ok, reason = verify_cover(g, cert)
            assert ok, reason


def test_build_cover_empty_set():
    g = gen_cycle(6)
    cert = build_cover(g, 0, 1)
    assert cert.seed == 0 and cert.envelope == 0 and cert.trace == ()
    ok, reason = verify_cover(g, cert)
    assert ok, reason


def test_build_cover_rejects_bad_input():
    g = gen_cycle(5)
    with pytest.raises(ValueError):
        build_cover(g, mask_of([0, 1]), 1)  # not independent
    with pytest.raises(ValueError):
        build_cover(g, mask_of([0, 2]), 0)  # phi out of range
    with pytest.raises(ValueError):
        build_cover(g, mask_of([0, 2]), 2)  # phi must stay below d
    from indsets.graphs import build_graph

    path = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        build_cover(path, 0, 1)  # not regular


def test_verify_rejects_tampered_envelope():
    g = gen_cycle(8)
    cert = build_cover(g, mask_of([0, 2, 4]), 1)
    # Add a neighbor of the seed to the envelope.
    bad = replace(cert, envelope=cert.envelope | (1 << 1))
    ok, reason = verify_cover(g, bad)
    assert not ok and reason == "envelope-mismatch"


def test_verify_rejects_truncated_trace():
    g = gen_cycle(8)
    full = build_cover(g, mask_of([0, 2, 4]), 1)
    assert len(full.trace) == 3
    truncated = CoverCertificate(
        seed=mask_of(full.trace[:2]),
        envelope=full.envelope,
        phi=1,
        independent_set=full.independent_set,
        trace=full.trace[:2],
    )
    ok, reason = verify_cover(g, truncated)
    assert not ok and reason == "stopping-condition-violated"


def test_verify_rejects_seed_outside_set():
    g = gen_cycle(8)
    cert = build_cover(g, mask_of([0, 2, 4]), 1)
    bad = replace(cert, independent_set=mask_of([0, 2]))
    ok, reason = verify_cover(g, bad)
    assert not ok and reason == "seed-not-subset"


def test_certificate_json_round_trip():
    g = gen_petersen()
    from indsets.graphs import max_independent_set

    cert = build_cover(g, max_independent_set(g), 2)
    again = CoverCertificate.from_json(json.dumps(cert.to_dict()), g.n)
    assert again == cert
    ok, reason = verify_cover(g, again)
    assert ok, reason


def test_random_triples_certify():
    rng = random.Random(20240901)
    count = 0
    while count < 60:
        d = rng.choice([3, 4, 5])
        n = rng.choice([k for k in range(2 * d + 2, 17) if (k * d) % 2 == 0])
        g = gen_random_regular(n, d, rng.randrange(10 ** 6))
        independent = random_maximal_independent_set(g, rng)
        assert is_independent(g, independent)
        phi = rng.randrange(1, d)
        cert = build_cover(g, independent, phi)
        ok, reason = verify_cover(g, cert)
        assert ok, reason
        assert cert.seed.bit_count() * phi <= n
        assert cert.independent_set & ~cert.envelope == 0
        assert cert.envelope.bit_count() * (2 * d - phi) <= n * d
        count += 1


def test_envelope_is_function_of_seed():
    # Two different independent sets that grow the same seed must agree on the
    # envelope; check by rebuilding from the recorded seed.
    g = gen_random_regular(14, 3, 9)
    rng = random.Random(5)
    independent = random_maximal_independent_set(g, rng)
    cert = build_cover(g, independent, 2)
    rebuilt = build_cover(g, cert.seed, 2)
    assert rebuilt.envelope & ~cert.envelope == 0 or cert.envelope & ~rebuilt.envelope == 0


def test_cover_count_bound_c5():
    rep = cover_count_bound(5, 2, 2, 1, 1)
    assert rep.exact_value == Fraction(2048, 9)
    assert rep.exact_value == 32 * Fraction(8, 3) ** 2
    assert rep.exact_value >= 11


def test_cover_count_bound_dominates_samples():
    rng = random.Random(77)
    for _ in range(20):
        d = rng.choice([3, 4])
        n = rng.choice([k for k in range(2 * d + 2, 15) if (k * d) % 2 == 0])
        g = gen_random_regular(n, d, rng.randrange(10 ** 6))
        stats = graph_stats(g)
        poly = independence_polynomial(g)
        for phi in range(1, d):
            for lam in LAMBDAS:
                rep = cover_count_bound(n, d, stats.alpha, lam, phi)
                assert poly.evaluate(lam) <= rep.exact_value


def test_power_term_nondecreasing_in_alpha():
    # (1 + a/x)^x grows with x, so the envelope power term grows with alpha.
    n, d, phi = 12, 3, 1
    for lam in LAMBDAS:
        values = [
            (1 + lam * n * d / ((2 * d - phi) * alpha)) ** alpha
            for alpha in range(1, n // 2 + 1)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_cover_count_bound_small_activity_limit():
    # As the activity shrinks the power term tends to 1, leaving the seed count.
    tiny = Fraction(1, 10 ** 9)
    rep = cover_count_bound(5, 2, 2, tiny, 1)
    assert 32 <= rep.exact_value < 33


def test_cover_count_bound_rejects_bad_params():
    with pytest.raises(ValueError):
        cover_count_bound(5, 2, 0, 1, 1)
    with pytest.raises(ValueError):
        cover_count_bound(5, 2, 2, 1, 2)
    with pytest.raises(ValueError):
        cover_count_bound(5, 2, 2, 0, 1)
