"""Greedy seed/envelope covers for independent sets in regular graphs.

Given an independent set I in a d-regular graph and a threshold phi, a seed
set is grown inside I: starting from the lowest vertex of I, any member of I
still contributing at least phi neighbors outside the seed's neighborhood is
appended (lowest index first). The envelope is then computed from the seed
alone as every vertex outside the seed's neighborhood with fewer than phi
neighbors outside it. The construction guarantees, in exact integer
arithmetic,

    |seed| * phi <= n,      I subset of envelope,      |envelope| * (2d - phi) <= n * d,

and those facts turn into a counting bound: a count over seeds times the
independence-number bound on the envelope subgraph dominates the whole
partition function. Certificates are immutable and re-verified from scratch.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from math import comb

from .bounds import BoundReport, activity_terms, exact_report
from .graphs import Graph, is_independent, mask_of, mask_vertices


def phi_default(d: int) -> int:
    """Default threshold floor(sqrt(d * log2(d))), clamped to [1, d-1]."""
    if d < 2:
        raise ValueError("need d >= 2")
    phi = math.floor(math.sqrt(d * math.log2(d)))
    return max(1, min(d - 1, phi))


class CoverCertificate(
    namedtuple("CoverCertificate", "seed envelope phi independent_set trace")
):
    """Seed set, envelope, threshold, source set, and the seed growth order."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "seed": mask_vertices(self.seed),
            "envelope": mask_vertices(self.envelope),
            "phi": self.phi,
            "independent_set": mask_vertices(self.independent_set),
            "trace": list(self.trace),
        }

    @classmethod
    def from_json(cls, text: str, n: int) -> "CoverCertificate":
        """Parse JSON of the `to_dict` form whose vertices lie in 0..n-1.

        Raises ValueError naming the first field of the wrong shape.
        """
        try:
            obj = json.loads(text)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply") from exc
        if not isinstance(obj, dict):
            raise ValueError("certificate is not a JSON object")
        for key in ("seed", "envelope", "independent_set", "trace"):
            value = obj.get(key)
            if not isinstance(value, list) or not all(
                type(v) is int and 0 <= v < n for v in value
            ):
                raise ValueError(f"certificate {key} is not a list of vertices in 0..{n - 1}")
        if type(obj.get("phi")) is not int:
            raise ValueError("certificate phi is not an integer")
        return cls(
            seed=mask_of(obj["seed"]),
            envelope=mask_of(obj["envelope"]),
            phi=obj["phi"],
            independent_set=mask_of(obj["independent_set"]),
            trace=tuple(obj["trace"]),
        )


def _neighborhood(g: Graph, bits: int) -> int:
    out = 0
    rest = bits
    adj = g.adj
    while rest:
        low = rest & -rest
        rest ^= low
        out |= adj[low.bit_length() - 1]
    return out


def _envelope_from_seed(g: Graph, seed: int, phi: int) -> int:
    seen = _neighborhood(g, seed)
    adj = g.adj
    env = 0
    for v in range(g.n):
        vbit = 1 << v
        if vbit & seen:
            continue
        if (adj[v] & ~seen).bit_count() < phi:
            env |= vbit
    return env


def _check_regular(g: Graph) -> int:
    d = g.regular_degree()
    if d is None or d < 2:
        raise ValueError("cover construction requires a d-regular graph with d >= 2")
    return d


def build_cover(g: Graph, independent_set: int, phi: int) -> CoverCertificate:
    """Run the greedy seed construction and return the certificate.

    Ties resolve to the lowest vertex index, so the trace is reproducible.
    An empty input set yields an empty seed and (for regular g) an empty
    envelope.
    """
    d = _check_regular(g)
    if not 0 < phi < d:
        raise ValueError("need 0 < phi < d")
    if independent_set >> g.n:
        raise ValueError("independent set has bits beyond the vertex range")
    if not is_independent(g, independent_set):
        raise ValueError("input set is not independent")

    adj = g.adj
    trace: list[int] = []
    seed = 0
    covered = 0
    if independent_set:
        u = (independent_set & -independent_set).bit_length() - 1
        trace.append(u)
        seed = 1 << u
        covered = adj[u]
        while True:
            rest = independent_set & ~seed
            chosen = -1
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                if (adj[v] & ~covered).bit_count() >= phi:
                    chosen = v
                    break
            if chosen < 0:
                break
            trace.append(chosen)
            seed |= 1 << chosen
            covered |= adj[chosen]

    return CoverCertificate(
        seed=seed,
        envelope=_envelope_from_seed(g, seed, phi),
        phi=phi,
        independent_set=independent_set,
        trace=tuple(trace),
    )


def verify_cover(g: Graph, cert: CoverCertificate) -> tuple[bool, str]:
    """Re-check a certificate from scratch; returns (ok, reason).

    The envelope is re-derived from the seed alone, the greedy stopping
    condition is re-tested against the full independent set, and the three
    size facts are checked in exact integer arithmetic.
    """
    d = g.regular_degree()
    if d is None or d < 2:
        return False, "not-regular"
    phi = cert.phi
    if not 0 < phi < d:
        return False, "phi-out-of-range"
    if cert.independent_set >> g.n or not is_independent(g, cert.independent_set):
        return False, "set-not-independent"
    if cert.seed & ~cert.independent_set:
        return False, "seed-not-subset"
    if mask_of(cert.trace) != cert.seed or len(cert.trace) != cert.seed.bit_count():
        return False, "trace-mismatch"
    covered = _neighborhood(g, cert.seed)
    adj = g.adj
    rest = cert.independent_set
    while rest:
        low = rest & -rest
        rest ^= low
        if (adj[low.bit_length() - 1] & ~covered).bit_count() >= phi:
            return False, "stopping-condition-violated"
    if _envelope_from_seed(g, cert.seed, phi) != cert.envelope:
        return False, "envelope-mismatch"
    if cert.envelope & covered:
        return False, "envelope-meets-seed-neighborhood"
    if cert.seed.bit_count() * phi > g.n:
        return False, "seed-too-large"
    if cert.independent_set & ~cert.envelope:
        return False, "independent-set-not-covered"
    if cert.envelope.bit_count() * (2 * d - phi) > g.n * d:
        return False, "envelope-too-large"
    return True, "ok"


# ---------------------------------------------------------------------------
# Counting bounds built on the cover facts
# ---------------------------------------------------------------------------


def cover_count_bound(n: int, d: int, alpha: int, activity, phi: int) -> BoundReport:
    """Exact cover-counting bound: (sum of C(n,t) for t <= n/phi) times
    (1 + activity*n*d/((2d-phi)*alpha))^alpha.

    The binomial prefactor counts seed choices, the power term bounds the
    envelope subgraph through its independence number; both are rational for
    rational activity a/b, so the cleared form is value <= the bound itself,
    seeds * (m + a*n*d)^alpha / m^alpha with m = (2d-phi)*alpha*b.
    """
    if not 0 < phi < d <= n:
        raise ValueError("need 0 < phi < d <= n")
    if alpha < 1:
        raise ValueError("need alpha >= 1")
    a, b, text = activity_terms(activity)
    seeds = sum(comb(n, t) for t in range(min(n, n // phi) + 1))
    m = (2 * d - phi) * alpha * b
    constants = {"n": n, "d": d, "alpha": alpha, "activity": text, "phi": phi}
    return exact_report("cover_count", seeds * (m + a * n * d) ** alpha, m**alpha, **constants)
