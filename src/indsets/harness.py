"""Batch verification over graph corpora: named checks, records, reports.

Checks come in two classes. Proved statements (the ordering bound, the
weighted independence-number bound, cover certificates, the independent-first
branch, fixed-size bounds) are "must_hold": a violation means a bug and makes
the run fail. The conjectured extremal inequalities are "conjecture": a
violation is data, surfaced as a COUNTEREXAMPLE record with the offending
graph6 string, and the run exits with a distinct code.

All randomness is derived from (seed, graph id, check name), so records are
independent of scheduling and reports are byte-identical across runs.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import bounds as bd
from . import cover as cv
from .graphs import (
    VERTEX_CAPACITY,
    Graph,
    GraphError,
    GraphStats,
    disjoint_union,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_petersen,
    gen_random_regular,
    graph_stats,
    is_independent,
    is_union_of_equal_cliques,
    mask_vertices,
    parse_graph6,
    write_graph6,
)
from .polynomial import independence_polynomial, kdd_union_polynomial

MUST_HOLD = "must_hold"
CONJECTURE = "conjecture"

DEFAULT_LAMBDAS = (Fraction(1, 2), Fraction(1), Fraction(2))


@dataclass
class RunConfig:
    """Verification run parameters; everything that affects output lives here."""

    lambdas: tuple[Fraction, ...] = DEFAULT_LAMBDAS
    phi: int | None = None  # None: per-graph default threshold
    C: float = bd.DEFAULT_BIG_C
    c: float = bd.DEFAULT_SMALL_C
    c_lambda: float | None = None  # None: derived from c per activity
    c_alpha: float | None = None  # None: same as c_lambda
    seed: int = 0
    cap: int = 28
    orders: int = 20
    checks: tuple[str, ...] | None = None  # None: all registered checks
    jobs: int = 1

    def __post_init__(self):
        if any(lam <= 0 for lam in self.lambdas):
            raise ValueError("activities must be positive")
        if self.cap > VERTEX_CAPACITY:
            raise ValueError(f"cap exceeds vertex capacity {VERTEX_CAPACITY}")
        if self.orders < 0:
            raise ValueError("orders must be nonnegative")

    def c_lambda_for(self, activity) -> float:
        if self.c_lambda is not None:
            return self.c_lambda
        return bd.c_lambda_from_c(activity, self.c)

    def c_alpha_for(self, activity) -> float:
        if self.c_alpha is not None:
            return self.c_alpha
        return self.c_lambda_for(activity)

    def enabled_checks(self) -> list[str]:
        if self.checks is None:
            return list(CHECKS)
        unknown = [name for name in self.checks if name not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        return [name for name in CHECKS if name in self.checks]

    def to_dict(self) -> dict:
        # jobs is an execution detail: reports must not depend on scheduling.
        return {
            "lambdas": [str(lam) for lam in self.lambdas],
            "phi": self.phi,
            "C": self.C,
            "c": self.c,
            "c_lambda": self.c_lambda,
            "c_alpha": self.c_alpha,
            "seed": self.seed,
            "cap": self.cap,
            "orders": self.orders,
            "checks": self.enabled_checks(),
        }


@dataclass
class CheckResult:
    name: str
    check_class: str
    status: str  # pass | fail | skip
    holds_exact: bool | None = None
    margin_log2: float | None = None
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "class": self.check_class,
            "status": self.status,
        }
        if self.holds_exact is not None:
            out["holds_exact"] = self.holds_exact
        if self.margin_log2 is not None:
            out["margin_log2"] = self.margin_log2
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationRecord:
    graph_id: str
    graph6: str
    stats: GraphStats | None
    checks: list[CheckResult]

    @property
    def counterexample(self) -> bool:
        return any(c.check_class == CONJECTURE and c.status == "fail" for c in self.checks)

    @property
    def internal_failure(self) -> bool:
        return any(c.check_class == MUST_HOLD and c.status == "fail" for c in self.checks)

    def to_dict(self) -> dict:
        stats = None
        if self.stats is not None:
            stats = {
                "n": self.stats.n,
                "d": self.stats.d,
                "alpha": self.stats.alpha,
                "edge_count": self.stats.edge_count,
            }
        return {
            "graph_id": self.graph_id,
            "graph6": self.graph6,
            "counterexample": self.counterexample,
            "stats": stats,
            "checks": [c.to_dict() for c in self.checks],
        }


def _rng(cfg: RunConfig, graph_id: str, check: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{graph_id}:{check}")


def random_maximal_independent_set(g: Graph, rng: random.Random) -> int:
    """Greedy maximal independent set over a shuffled vertex order."""
    order = list(range(g.n))
    rng.shuffle(order)
    chosen = 0
    for v in order:
        if not g.adj[v] & chosen:
            chosen |= 1 << v
    return chosen


# ---------------------------------------------------------------------------
# Named checks
# ---------------------------------------------------------------------------


def _skip(name, check_class, reason):
    return CheckResult(name, check_class, "skip", witness={"reason": reason})


def _check_alpha_half(g, stats, poly, cfg, graph_id):
    if stats.d is None or stats.d < 1:
        return _skip("alpha_le_half", MUST_HOLD, "needs a regular graph with d >= 1")
    ok = 2 * stats.alpha <= stats.n
    return CheckResult(
        "alpha_le_half",
        MUST_HOLD,
        "pass" if ok else "fail",
        holds_exact=ok,
        witness={} if ok else {"alpha": stats.alpha, "n": stats.n},
    )


def _check_poly_degree(g, stats, poly, cfg, graph_id):
    ok = poly.degree == stats.alpha
    return CheckResult(
        "poly_degree_matches_alpha",
        MUST_HOLD,
        "pass" if ok else "fail",
        holds_exact=ok,
        witness={} if ok else {"degree": poly.degree, "alpha": stats.alpha},
    )


def _check_alekseev_weighted(g, stats, poly, cfg, graph_id):
    if stats.n < 1:
        return _skip("alekseev_weighted", MUST_HOLD, "empty graph")
    expect_equality = is_union_of_equal_cliques(g)
    margin = None
    for lam in cfg.lambdas:
        value = poly.evaluate(lam)
        bound = (1 + lam * stats.n / stats.alpha) ** stats.alpha
        if value > bound:
            return CheckResult(
                "alekseev_weighted",
                MUST_HOLD,
                "fail",
                holds_exact=False,
                witness={"activity": str(lam), "value": str(value), "bound": str(bound)},
            )
        if (value == bound) != expect_equality:
            return CheckResult(
                "alekseev_weighted",
                MUST_HOLD,
                "fail",
                holds_exact=False,
                witness={
                    "activity": str(lam),
                    "equality": value == bound,
                    "union_of_equal_cliques": expect_equality,
                },
            )
        gap = bd.log2_fraction(bound) - bd.log2_fraction(value)
        margin = gap if margin is None else min(margin, gap)
    return CheckResult(
        "alekseev_weighted", MUST_HOLD, "pass", holds_exact=True, margin_log2=margin
    )


def _check_conjecture_counts(g, stats, poly, cfg, graph_id):
    if stats.d is None or stats.d < 1:
        return _skip("conjecture_counts", CONJECTURE, "needs a regular graph with d >= 1")
    total = poly.total()
    ok = bd.conjecture_holds_exact(total, stats.n, stats.d)
    margin = bd.conjecture_bound(stats.n, stats.d).log2_value - bd.log2_fraction(
        Fraction(total)
    )
    witness = {}
    if not ok:
        witness = {"count": str(total), "n": stats.n, "d": stats.d}
    return CheckResult(
        "conjecture_counts",
        CONJECTURE,
        "pass" if ok else "fail",
        holds_exact=ok,
        margin_log2=margin,
        witness=witness,
    )


def _check_conjecture_weighted(g, stats, poly, cfg, graph_id):
    if stats.d is None or stats.d < 1:
        return _skip("conjecture_weighted", CONJECTURE, "needs a regular graph with d >= 1")
    margin = None
    for lam in cfg.lambdas:
        value = poly.evaluate(lam)
        if not bd.weighted_conjecture_holds_exact(value, stats.n, stats.d, lam):
            return CheckResult(
                "conjecture_weighted",
                CONJECTURE,
                "fail",
                holds_exact=False,
                witness={"activity": str(lam), "value": str(value)},
            )
        gap = bd.kdd_weighted_bound(stats.n, stats.d, lam).log2_value - bd.log2_fraction(value)
        margin = gap if margin is None else min(margin, gap)
    return CheckResult(
        "conjecture_weighted", CONJECTURE, "pass", holds_exact=True, margin_log2=margin
    )


def _check_order_bound(g, stats, poly, cfg, graph_id):
    """P(lam)^d <= prod_v (2(1+lam)^p(v) - 1) on cfg.orders random orders.

    The product depends only on the order's histogram of p-values, so each
    distinct (histogram, lam) pair is compared once; a repeat has the same
    verdict and gap and cannot change the first failure or the minimum gap.
    """
    if stats.d is None or stats.d < 1:
        return _skip("order_bound", MUST_HOLD, "needs a regular graph with d >= 1")
    if cfg.orders == 0:
        return _skip("order_bound", MUST_HOLD, "no orders requested")
    d = stats.d
    rng = _rng(cfg, graph_id, "order_bound")
    # Per activity: the value, its d-th power, its log2, and the histograms seen.
    per_lam = []
    for lam in cfg.lambdas:
        value = poly.evaluate(lam)
        per_lam.append((lam, value, value**d, bd.log2_fraction(value), set()))
    margin = None
    for _ in range(cfg.orders):
        order = rng.sample(range(stats.n), stats.n)
        hist = bd.order_histogram(g, order, d)
        for lam, value, power, value_log2, seen in per_lam:
            if hist in seen:
                continue
            seen.add(hist)
            product = bd.order_product(hist, lam, stats.edge_count)
            if power > product:
                return CheckResult(
                    "order_bound",
                    MUST_HOLD,
                    "fail",
                    holds_exact=False,
                    witness={
                        "activity": str(lam),
                        "order": order,
                        "value": str(value),
                        "product": str(product),
                    },
                )
            gap = bd.log2_fraction(product) / d - value_log2
            margin = gap if margin is None else min(margin, gap)
    return CheckResult(
        "order_bound", MUST_HOLD, "pass", holds_exact=True, margin_log2=margin
    )


def _check_independent_first(g, stats, poly, cfg, graph_id):
    if stats.d is None or stats.d < 1:
        return _skip("independent_first", MUST_HOLD, "needs a regular graph with d >= 1")
    if 2 * stats.alpha > stats.n:
        return CheckResult(
            "independent_first",
            MUST_HOLD,
            "fail",
            holds_exact=False,
            witness={"reason": "alpha exceeds n/2 on a regular graph"},
        )
    margin = None
    for lam in cfg.lambdas:
        value = poly.evaluate(lam)
        if not bd.independent_first_holds_exact(value, stats.n, stats.d, stats.alpha, lam):
            return CheckResult(
                "independent_first",
                MUST_HOLD,
                "fail",
                holds_exact=False,
                witness={"activity": str(lam), "value": str(value)},
            )
        gap = bd.independent_first_bound(
            stats.n, stats.d, stats.alpha, lam
        ).log2_value - bd.log2_fraction(value)
        margin = gap if margin is None else min(margin, gap)
    return CheckResult(
        "independent_first", MUST_HOLD, "pass", holds_exact=True, margin_log2=margin
    )


def _check_fixed_size(g, stats, poly, cfg, graph_id):
    if stats.d is None or stats.d < 1:
        return _skip("fixed_size", MUST_HOLD, "needs a regular graph with d >= 1")
    rhs = bd.fixed_size_rhs(stats.n, stats.d)
    margin = None
    for t, count in enumerate(poly.coeffs):
        count_log2 = bd.log2_fraction(Fraction(count))
        bound_log2 = bd.fixed_size_bound(stats.n, stats.d, t).log2_value
        if not bd.fixed_size_holds_exact(count, stats.n, stats.d, t, rhs):
            return CheckResult(
                "fixed_size",
                MUST_HOLD,
                "fail",
                witness={"t": t, "count": str(count), "bound_log2": bound_log2},
            )
        gap = bound_log2 - count_log2
        margin = gap if margin is None else min(margin, gap)
    return CheckResult("fixed_size", MUST_HOLD, "pass", margin_log2=margin)


def _phi_for(cfg: RunConfig, d: int) -> int | None:
    if cfg.phi is None:
        return cv.phi_default(d)
    return cfg.phi if 0 < cfg.phi < d else None


def _check_cover_certificate(g, stats, poly, cfg, graph_id):
    if stats.d is None or stats.d < 2:
        return _skip("cover_certificate", MUST_HOLD, "needs a regular graph with d >= 2")
    phi = _phi_for(cfg, stats.d)
    if phi is None:
        return _skip("cover_certificate", MUST_HOLD, "phi outside (0, d)")
    rng = _rng(cfg, graph_id, "cover_certificate")
    independent = random_maximal_independent_set(g, rng)
    cert = cv.build_cover(g, independent, phi)
    ok, reason = cv.verify_cover(g, cert)
    return CheckResult(
        "cover_certificate",
        MUST_HOLD,
        "pass" if ok else "fail",
        holds_exact=ok,
        witness={"phi": phi, "seed_size": cert.seed.bit_count()}
        if ok
        else {"phi": phi, "reason": reason, "certificate": json.loads(cert.to_json())},
    )


def _check_cover_count(g, stats, poly, cfg, graph_id):
    if stats.d is None or stats.d < 2:
        return _skip("cover_count", MUST_HOLD, "needs a regular graph with d >= 2")
    phi = _phi_for(cfg, stats.d)
    if phi is None:
        return _skip("cover_count", MUST_HOLD, "phi outside (0, d)")
    margin = None
    for lam in cfg.lambdas:
        value = poly.evaluate(lam)
        report = cv.cover_count_bound(stats.n, stats.d, stats.alpha, lam, phi)
        if value > report.exact_value:
            return CheckResult(
                "cover_count",
                MUST_HOLD,
                "fail",
                holds_exact=False,
                witness={"activity": str(lam), "value": str(value), "phi": phi},
            )
        gap = report.log2_value - bd.log2_fraction(value)
        margin = gap if margin is None else min(margin, gap)
    return CheckResult(
        "cover_count", MUST_HOLD, "pass", holds_exact=True, margin_log2=margin
    )


def _check_conjecture_fixed_size(g, stats, poly, cfg, graph_id):
    if stats.d is None or stats.d < 1:
        return _skip("conjecture_fixed_size", CONJECTURE, "needs a regular graph with d >= 1")
    if stats.n % (2 * stats.d) != 0:
        return _skip("conjecture_fixed_size", CONJECTURE, "2d does not divide n")
    target = kdd_union_polynomial(stats.n // (2 * stats.d), stats.d)
    for t in range(poly.degree + 1):
        if poly.coefficient(t) > target.coefficient(t):
            return CheckResult(
                "conjecture_fixed_size",
                CONJECTURE,
                "fail",
                holds_exact=False,
                witness={
                    "t": t,
                    "count": str(poly.coefficient(t)),
                    "extremal": str(target.coefficient(t)),
                },
            )
    return CheckResult("conjecture_fixed_size", CONJECTURE, "pass", holds_exact=True)


CHECKS = {
    "alpha_le_half": _check_alpha_half,
    "poly_degree_matches_alpha": _check_poly_degree,
    "alekseev_weighted": _check_alekseev_weighted,
    "conjecture_counts": _check_conjecture_counts,
    "conjecture_weighted": _check_conjecture_weighted,
    "order_bound": _check_order_bound,
    "independent_first": _check_independent_first,
    "fixed_size": _check_fixed_size,
    "cover_certificate": _check_cover_certificate,
    "cover_count": _check_cover_count,
    "conjecture_fixed_size": _check_conjecture_fixed_size,
}


def verify_graph(graph_id: str, g: Graph, cfg: RunConfig) -> VerificationRecord:
    """Run every enabled check on one graph and collect the record."""
    line = write_graph6(g)
    enabled = cfg.enabled_checks()
    if g.n > cfg.cap:
        checks = [
            _skip(name, _class_of(name), f"n={g.n} exceeds cap {cfg.cap}")
            for name in enabled
        ]
        return VerificationRecord(graph_id, line, None, checks)
    stats = graph_stats(g)
    poly = independence_polynomial(g)
    checks = [CHECKS[name](g, stats, poly, cfg, graph_id) for name in enabled]
    return VerificationRecord(graph_id, line, stats, checks)


def _class_of(name: str) -> str:
    return CONJECTURE if name.startswith("conjecture") else MUST_HOLD


# ---------------------------------------------------------------------------
# Corpus ingestion
# ---------------------------------------------------------------------------


def graph_from_spec(spec: str) -> Graph:
    """Build a graph from a generator descriptor.

    Grammar: gen:cycle:N | gen:complete:N | gen:kdd:D | gen:petersen
           | gen:rr:N:D:SEED | gen:union:PART+PART+... (PART is a descriptor
           without the gen: prefix).
    """
    if not spec.startswith("gen:"):
        raise GraphError(f"not a generator spec: {spec!r}")
    body = spec[4:]
    kind, _, rest = body.partition(":")
    try:
        if kind == "cycle":
            return gen_cycle(int(rest))
        if kind == "complete":
            return gen_complete(int(rest))
        if kind == "kdd":
            return gen_complete_bipartite(int(rest))
        if kind == "petersen":
            return gen_petersen()
        if kind == "rr":
            n, d, seed = rest.split(":")
            return gen_random_regular(int(n), int(d), int(seed))
        if kind == "union":
            parts = rest.split("+")
            out = graph_from_spec("gen:" + parts[0])
            for part in parts[1:]:
                out = disjoint_union(out, graph_from_spec("gen:" + part))
            return out
    except GraphError:
        raise
    except (ValueError, IndexError) as exc:
        raise GraphError(f"malformed generator spec {spec!r}: {exc}") from exc
    raise GraphError(f"unknown generator kind {kind!r} in {spec!r}")


def load_inputs(inputs: list[str]) -> list[tuple[str, Graph]]:
    """Resolve CLI inputs to (graph_id, Graph) pairs, in input order.

    Each input is a generator descriptor, a raw graph6 line, or a path to a
    corpus file whose lines are descriptors or graph6. Parse errors carry the
    offending file and line number.
    """
    out: list[tuple[str, Graph]] = []
    for item in inputs:
        if item.startswith("gen:"):
            out.append((item, graph_from_spec(item)))
        elif os.path.exists(item):
            with open(item, "r", encoding="ascii") as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    try:
                        if line.startswith("gen:"):
                            out.append((f"{item}:{lineno}:{line}", graph_from_spec(line)))
                        else:
                            out.append((f"{item}:{lineno}", parse_graph6(line)))
                    except GraphError as exc:
                        raise GraphError(f"{item}:{lineno}: {exc}") from exc
        else:
            # Fall back to treating the argument as a literal graph6 line.
            out.append((item, parse_graph6(item)))
    return out


# ---------------------------------------------------------------------------
# Verification runs and reports
# ---------------------------------------------------------------------------


def _verify_worker(args: tuple[str, Graph, RunConfig]) -> VerificationRecord:
    graph_id, g, cfg = args
    return verify_graph(graph_id, g, cfg)


def run_verify(pairs: list[tuple[str, Graph]], cfg: RunConfig) -> tuple[list[VerificationRecord], int]:
    """Verify a corpus; records come back in input order regardless of jobs.

    Exit code: 0 all pass, 2 counterexample to a conjecture, 1 internal
    check failure (a proved statement failed, i.e. a bug).
    """
    tasks = [(graph_id, g, cfg) for graph_id, g in pairs]
    if cfg.jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(_verify_worker, tasks, chunksize=8))
    else:
        records = [_verify_worker(task) for task in tasks]
    if any(r.internal_failure for r in records):
        return records, 1
    if any(r.counterexample for r in records):
        return records, 2
    return records, 0


def report_json(records: list[VerificationRecord], cfg: RunConfig) -> str:
    """Deterministic JSON report; excludes wall-clock fields by design."""
    doc = {
        "config": cfg.to_dict(),
        "records": [r.to_dict() for r in records],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def summary_lines(records: list[VerificationRecord]) -> list[str]:
    lines = []
    passed = failed = skipped = counter = 0
    for rec in records:
        if rec.counterexample:
            counter += 1
            lines.append(f"COUNTEREXAMPLE {rec.graph_id} graph6={rec.graph6}")
        for chk in rec.checks:
            if chk.status == "pass":
                passed += 1
            elif chk.status == "skip":
                skipped += 1
            else:
                failed += 1
                lines.append(
                    f"FAIL {rec.graph_id} {chk.name} ({chk.check_class}) "
                    f"witness={json.dumps(chk.witness, sort_keys=True)}"
                )
    lines.append(
        f"graphs={len(records)} checks_passed={passed} checks_failed={failed} "
        f"checks_skipped={skipped} counterexamples={counter}"
    )
    return lines


def sort_records_for_report(records: list[dict]) -> list[dict]:
    """Counterexamples first, then by (n, d, graph_id); stable and total."""

    def key(rec: dict):
        stats = rec.get("stats") or {}
        n = stats.get("n")
        d = stats.get("d")
        return (
            0 if rec.get("counterexample") else 1,
            n if n is not None else -1,
            d if d is not None else -1,
            rec.get("graph_id", ""),
        )

    return sorted(records, key=key)


CSV_BASE_COLUMNS = ["graph_id", "n", "d", "alpha", "edge_count", "counterexample", "graph6"]


def records_to_csv(records: list[dict]) -> str:
    """Summary table: base stats plus one status column per check name."""
    names = sorted({chk["name"] for rec in records for chk in rec.get("checks", [])})
    header = CSV_BASE_COLUMNS + names
    rows = [",".join(header)]
    for rec in sort_records_for_report(records):
        stats = rec.get("stats") or {}
        by_name = {chk["name"]: chk for chk in rec.get("checks", [])}
        cells = [
            str(rec.get("graph_id", "")),
            _csv_cell(stats.get("n")),
            _csv_cell(stats.get("d")),
            _csv_cell(stats.get("alpha")),
            _csv_cell(stats.get("edge_count")),
            "true" if rec.get("counterexample") else "false",
            str(rec.get("graph6", "")),
        ]
        for name in names:
            chk = by_name.get(name)
            cells.append(chk["status"] if chk else "")
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def _csv_cell(value) -> str:
    return "" if value is None else str(value)


# ---------------------------------------------------------------------------
# Single-graph drivers for the CLI
# ---------------------------------------------------------------------------


def poly_summary(g: Graph, cfg: RunConfig) -> dict:
    """Coefficients, independence number, total count, and evaluations."""
    poly = independence_polynomial(g)
    return {
        "polynomial": {"n": poly.n, "coeffs": [str(c) for c in poly.coeffs]},
        "alpha": poly.degree,
        "count": str(poly.total()),
        "evaluations": {str(lam): str(poly.evaluate(lam)) for lam in cfg.lambdas},
    }


def _with_margin(report: bd.BoundReport, value_log2: float, value: Fraction | None = None):
    report.margin_log2 = report.log2_value - value_log2
    if value is not None and report.exact_value is not None:
        report.holds_exact = value <= report.exact_value
    return report


def bounds_for_graph(g: Graph, cfg: RunConfig) -> tuple[GraphStats, list[bd.BoundReport], list[str]]:
    """Drive every bound evaluator applicable to one graph.

    Returns (stats, reports, notices); regular-only bounds are skipped with a
    notice on irregular input, and exact pass/fail is filled wherever the
    bound is rational.
    """
    stats = graph_stats(g)
    poly = independence_polynomial(g)
    notices: list[str] = []
    reports: list[bd.BoundReport] = []
    if stats.n < 1:
        return stats, reports, ["empty graph: nothing to bound"]

    total = Fraction(poly.total())
    total_log2 = bd.log2_fraction(total)
    values = {lam: poly.evaluate(lam) for lam in cfg.lambdas}

    reports.append(_with_margin(bd.alekseev_bound(stats.n, stats.alpha), total_log2, total))
    for lam in cfg.lambdas:
        reports.append(
            _with_margin(
                bd.alekseev_weighted_bound(stats.n, stats.alpha, lam),
                bd.log2_fraction(values[lam]),
                values[lam],
            )
        )

    d = stats.d
    if d is None or d < 1:
        notices.append("graph is not d-regular with d >= 1: regular-only bounds skipped")
        return stats, reports, notices

    reports.append(_with_margin(bd.alon_bound(stats.n, d, cfg.C), total_log2))
    reports.append(_with_margin(bd.sapozhenko_simple_bound(stats.n, d, cfg.C), total_log2))
    reports.append(_with_margin(bd.kahn_bound(stats.n, d), total_log2, total))

    conj = _with_margin(bd.conjecture_bound(stats.n, d), total_log2, total)
    conj.holds_exact = bd.conjecture_holds_exact(poly.total(), stats.n, d)
    if poly.total() ** (2 * d) == (2 ** (d + 1) - 1) ** stats.n:
        conj.constants["equality"] = True
    reports.append(conj)

    for lam in cfg.lambdas:
        value_log2 = bd.log2_fraction(values[lam])
        weighted = _with_margin(bd.kdd_weighted_bound(stats.n, d, lam), value_log2)
        weighted.holds_exact = bd.weighted_conjecture_holds_exact(values[lam], stats.n, d, lam)
        reports.append(weighted)
        reports.append(
            _with_margin(bd.weighted_kahn_bound(stats.n, d, lam), value_log2, values[lam])
        )
        first = _with_margin(
            bd.independent_first_bound(stats.n, d, stats.alpha, lam), value_log2
        )
        first.holds_exact = bd.independent_first_holds_exact(
            values[lam], stats.n, d, stats.alpha, lam
        )
        reports.append(first)
        order = bd.order_bound(g, range(stats.n), lam)
        order.holds_exact = values[lam] ** d <= order.exact_value
        order.margin_log2 = order.constants["bound_log2"] - value_log2
        reports.append(order)

    for t in range(poly.degree + 1):
        coeff_log2 = bd.log2_fraction(Fraction(poly.coefficient(t)))
        reports.append(_with_margin(bd.fixed_size_bound(stats.n, d, t), coeff_log2))

    if d >= 2:
        reports.append(_with_margin(bd.improved_count_bound(stats.n, d, cfg.C), total_log2))
        phi = _phi_for(cfg, d)
        for lam in cfg.lambdas:
            value_log2 = bd.log2_fraction(values[lam])
            reports.append(
                _with_margin(
                    bd.improved_weighted_bound(stats.n, d, lam, cfg.c_lambda_for(lam)),
                    value_log2,
                )
            )
            reports.append(
                _with_margin(
                    cv.sapozhenko_alpha_bound(stats.n, d, stats.alpha, lam, cfg.c),
                    value_log2,
                )
            )
            if phi is not None:
                reports.append(
                    _with_margin(
                        cv.cover_count_bound(stats.n, d, stats.alpha, lam, phi),
                        value_log2,
                        values[lam],
                    )
                )
        for t in range(poly.degree + 1):
            coeff_log2 = bd.log2_fraction(Fraction(poly.coefficient(t)))
            reports.append(
                _with_margin(
                    bd.improved_fixed_size_bound(stats.n, d, t, cfg.c_alpha_for(1)),
                    coeff_log2,
                )
            )
        exact, expansion = bd.kdd_exponent_expansion(d)
        reports.append(
            bd.BoundReport(
                "kdd_exponent_expansion",
                exact,
                constants={"d": d, "exact": exact, "expansion": expansion},
            )
        )
    else:
        notices.append("d < 2: refined bounds and cover bounds skipped")
    return stats, reports, notices


def cover_summary(g: Graph, independent_set: int, phi: int | None, cfg: RunConfig) -> dict:
    """Build a certificate, re-verify it, and attach the counting bound."""
    if not is_independent(g, independent_set):
        raise GraphError(f"set {mask_vertices(independent_set)} is not independent")
    stats = graph_stats(g)
    if stats.d is None or stats.d < 2:
        raise GraphError("cover construction requires a d-regular graph with d >= 2")
    use_phi = phi if phi is not None else cv.phi_default(stats.d)
    cert = cv.build_cover(g, independent_set, use_phi)
    ok, reason = cv.verify_cover(g, cert)
    poly = independence_polynomial(g)
    bounds = []
    for lam in cfg.lambdas:
        report = cv.cover_count_bound(stats.n, stats.d, stats.alpha, lam, use_phi)
        value = poly.evaluate(lam)
        report.holds_exact = value <= report.exact_value
        report.margin_log2 = report.log2_value - bd.log2_fraction(value)
        bounds.append(report.to_dict())
    return {
        "certificate": json.loads(cert.to_json()),
        "verified": ok,
        "reason": reason,
        "stats": {"n": stats.n, "d": stats.d, "alpha": stats.alpha},
        "cover_count_bounds": bounds,
    }
