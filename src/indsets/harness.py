"""Batch verification over graph corpora: named checks, records, reports.

Every check reads one GraphFacts per graph, in which P(lam) and its log2 are
computed once per activity. A bound row (`alekseev_weighted`, ...,
`cover_count`) compares P(lam), or one coefficient of P, with one closed-form
bound and returns BoundReports with exact verdicts and log2 margins; `verify`
folds a check's rows, and `bounds` and `cover` print them.

Checks come in two classes. Proved statements (the ordering bound, the
weighted independence-number bound, cover certificates, the independent-first
branch, fixed-size bounds) are "must_hold": a violation means a bug and makes
the run fail. The extremal inequalities are "conjecture": a violation is
surfaced as a COUNTEREXAMPLE record with the offending graph6 string, and
the run exits with a distinct code. The count and weighted inequalities
(`conjecture_counts`, `conjecture_weighted`) are now theorems for every
d-regular graph: Kahn 2001 for bipartite graphs, Galvin-Tetali 2004 for the
weighted bipartite case, Zhao 2010 in general. A COUNTEREXAMPLE from either
therefore means a bug in this package; they keep their class and exit code.

All randomness is derived from (seed, graph id, check name), so records are
independent of scheduling and reports are byte-identical across runs.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import random
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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
from .polynomial import IndependencePolynomial, _unpack, independence_polynomial


def _lazy_submodule(name: str):
    """The package's submodule `name`, run on its first attribute access.

    The importlib.util.LazyLoader recipe: `poly` and `report` never touch the
    bound rows, so they never compile or run `bounds` and `cover`. The module
    goes into sys.modules and onto the package, where `import` and attribute
    lookups (`indsets.cover.build_cover`) find the same object.
    """
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


bd = _lazy_submodule("bounds")
cv = _lazy_submodule("cover")

MUST_HOLD = "must_hold"
CONJECTURE = "conjecture"

DEFAULT_LAMBDAS = (Fraction(1, 2), Fraction(1), Fraction(2))


class ConfigError(ValueError):
    """A RunConfig value out of range, or a phi out of range for the graph at
    hand; `field` names the parameter."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class RunConfig:
    """Verification run parameters; everything that affects output lives here.

    `phi` None takes the per-graph default threshold; `checks` None runs all,
    and the names are kept as a tuple in CHECKS order. A value out of range
    raises ConfigError naming its parameter.
    """

    __slots__ = ("lambdas", "phi", "seed", "cap", "orders", "checks", "jobs")

    def __init__(
        self, lambdas=DEFAULT_LAMBDAS, phi=None, seed=0, cap=28, orders=20, checks=None, jobs=1
    ):
        if not lambdas:
            raise ConfigError("lambdas", "lambdas must name at least one activity")
        if any(lam <= 0 for lam in lambdas):
            raise ConfigError("lambdas", "activities must be positive")
        if cap > VERTEX_CAPACITY:
            raise ConfigError("cap", f"cap exceeds vertex capacity {VERTEX_CAPACITY}")
        if cap < 0:
            raise ConfigError("cap", f"cap must be nonnegative, got {cap}")
        if orders < 0:
            raise ConfigError("orders", "orders must be nonnegative")
        if checks is not None and not checks:
            raise ConfigError("checks", f"checks must name at least one check, got {checks!r}")
        if jobs < 1:
            raise ConfigError("jobs", f"jobs must be at least 1, got {jobs}")
        selected = CHECKS if checks is None else checks
        unknown = [name for name in selected if name not in CHECKS]
        if unknown:
            raise ConfigError("checks", f"unknown checks: {', '.join(unknown)}")
        self.lambdas = lambdas
        self.phi = phi
        self.seed = seed
        self.cap = cap
        self.orders = orders
        self.checks = tuple(name for name in CHECKS if name in selected)
        self.jobs = jobs

    def to_dict(self) -> dict:
        # jobs is an execution detail: reports must not depend on scheduling.
        return {
            "lambdas": [str(lam) for lam in self.lambdas],
            "phi": self.phi,
            "seed": self.seed,
            "cap": self.cap,
            "orders": self.orders,
            "checks": list(self.checks),
        }


class CheckResult:
    """One check's outcome on one graph: status is pass, fail or skip."""

    __slots__ = ("name", "check_class", "status", "holds_exact", "margin_log2", "witness")

    def __init__(self, name, check_class, status, holds_exact=None, margin_log2=None, witness=None):
        self.name = name
        self.check_class = check_class
        self.status = status
        self.holds_exact = holds_exact
        self.margin_log2 = margin_log2
        self.witness = {} if witness is None else witness

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


class VerificationRecord:
    """One graph's checks; `stats` is None when the graph was over the cap."""

    __slots__ = ("graph_id", "graph6", "stats", "checks")

    def __init__(
        self, graph_id: str, graph6: str, stats: GraphStats | None, checks: list[CheckResult]
    ):
        self.graph_id = graph_id
        self.graph6 = graph6
        self.stats = stats
        self.checks = checks

    @property
    def counterexample(self) -> bool:
        return any(c.check_class == CONJECTURE and c.status == "fail" for c in self.checks)

    @property
    def internal_failure(self) -> bool:
        return any(c.check_class == MUST_HOLD and c.status == "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "graph6": self.graph6,
            "counterexample": self.counterexample,
            "stats": None if self.stats is None else self.stats._asdict(),
            "checks": [c.to_dict() for c in self.checks],
        }


def _rng(cfg: RunConfig, graph_id: str, check: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{graph_id}:{check}")


def random_maximal_independent_set(g: Graph, rng: random.Random) -> int:
    """Greedy maximal independent set over a shuffled vertex order."""
    adj = g.adj
    order = list(range(g.n))
    rng.shuffle(order)
    chosen = 0
    for v in order:
        if not adj[v] & chosen:
            chosen |= 1 << v
    return chosen


# ---------------------------------------------------------------------------
# Per-graph facts and bound rows
# ---------------------------------------------------------------------------


class GraphFacts:
    """What the checks and bound rows read about one graph, each computed once.

    `evaluations` holds (lam, P(lam), log2 P(lam)) for each activity of the
    run, in order; `coeffs_log2[t]` is log2 of coefficient t; `phi` is the
    cover threshold, None when no cover applies (d < 2, or cfg.phi outside
    (0, d)).
    """

    __slots__ = ("graph_id", "g", "cfg", "stats", "poly",
                 "count", "count_log2", "coeffs_log2", "evaluations", "phi")

    def __init__(
        self, graph_id: str, g: Graph, cfg: RunConfig, stats: GraphStats,
        poly: IndependencePolynomial,
    ):
        self.graph_id = graph_id
        self.g = g
        self.cfg = cfg
        self.stats = stats
        self.poly = poly
        self.count = poly.total()
        self.count_log2 = math.log2(self.count)
        self.coeffs_log2 = list(map(math.log2, poly.coeffs))
        self.evaluations = []
        for lam in cfg.lambdas:
            value = poly.evaluate(lam)
            self.evaluations.append((lam, value, bd.log2_fraction(value)))
        d, phi = stats.d, cfg.phi
        if d is None or d < 2:
            self.phi = None
        elif phi is None:
            self.phi = cv.phi_default(d)
        else:
            self.phi = phi if 0 < phi < d else None


def _per_activity(f: GraphFacts, bound: Callable[[Fraction], bd.BoundReport]):
    """bound(lam) judged against P(lam), for each activity of the run."""
    return [bound(lam).judge(value, value_log2) for lam, value, value_log2 in f.evaluations]


def _fixed(report: bd.BoundReport, name: str, constant: str) -> bd.BoundReport:
    """The report as row `name`, without the constant its caller held fixed: a
    count row is its weighted row at activity 1, `weighted_kahn` is
    `independent_first` at alpha = 0."""
    report.name = name
    del report.constants[constant]
    return report


def alekseev_weighted(f: GraphFacts) -> list[bd.BoundReport]:
    """P(lam) <= (1 + lam*n/alpha)^alpha per activity; needs n >= 1."""
    n, alpha = f.stats.n, f.stats.alpha
    return _per_activity(f, lambda lam: bd.alekseev_weighted_bound(n, alpha, lam))


def conjecture_counts(f: GraphFacts) -> list[bd.BoundReport]:
    """P(1)^(2d) <= (2^(d+1) - 1)^n, the K_{d,d} bound at activity 1; marks equality.
    Needs d >= 1."""
    bound = bd.kdd_weighted_bound(f.stats.n, f.stats.d, 1)
    report = _fixed(bound, "conjecture_counts", "activity").judge(f.count, f.count_log2)
    if report.tight:
        report.constants["equality"] = True
    return [report]


def conjecture_weighted(f: GraphFacts) -> list[bd.BoundReport]:
    """P(lam)^(2d) <= (2(1+lam)^d - 1)^n per activity; needs d >= 1."""
    n, d = f.stats.n, f.stats.d
    return _per_activity(f, lambda lam: bd.kdd_weighted_bound(n, d, lam))


def independent_first(f: GraphFacts) -> list[bd.BoundReport]:
    """P(lam) <= (1+lam)^(n/2) 2^((n-alpha)/d) per activity; needs d >= 1, 2 alpha <= n."""
    n, d, alpha = f.stats.n, f.stats.d, f.stats.alpha
    return _per_activity(f, lambda lam: bd.independent_first_bound(n, d, alpha, lam))


def fixed_size(f: GraphFacts) -> list[bd.BoundReport]:
    """i_t <= exp2{(n/2)(H(2t/n) + 2/d)} for each coefficient t; needs d >= 1."""
    n, d = f.stats.n, f.stats.d
    rhs = bd.fixed_size_rhs(n, d)
    return [
        bd.fixed_size_bound(n, d, t, rhs).judge(count, f.coeffs_log2[t])
        for t, count in enumerate(f.poly.coeffs)
    ]


def cover_count(f: GraphFacts) -> list[bd.BoundReport]:
    """P(lam) <= the exact cover-counting bound per activity; empty when phi is None."""
    if f.phi is None:
        return []
    n, d, alpha = f.stats.n, f.stats.d, f.stats.alpha
    return _per_activity(f, lambda lam: cv.cover_count_bound(n, d, alpha, lam, f.phi))


# ---------------------------------------------------------------------------
# Named checks
# ---------------------------------------------------------------------------


class Check(namedtuple("Check", "name check_class min_degree body")):
    """A named check: its class, the smallest regular degree it needs (None:
    any graph), and its body, called with the check and the graph's facts."""

    __slots__ = ()

    def __call__(self, facts: GraphFacts) -> CheckResult:
        d = facts.stats.d
        if self.min_degree is not None and (d is None or d < self.min_degree):
            return self.skip(f"needs a regular graph with d >= {self.min_degree}")
        return self.body(self, facts)

    def skip(self, reason: str) -> CheckResult:
        return CheckResult(self.name, self.check_class, "skip", witness={"reason": reason})

    def result(self, ok: bool, witness: dict | None = None, margin: float | None = None):
        status = "pass" if ok else "fail"
        return CheckResult(self.name, self.check_class, status, ok, margin, witness or {})

    def fold(self, reports: Iterable[bd.BoundReport], witness) -> CheckResult:
        """Fail at the first report whose verdict is false, with witness(index,
        report); otherwise pass with the smallest margin."""
        margin = None
        for i, rep in enumerate(reports):
            if not rep.holds_exact:
                return self.result(False, witness(i, rep))
            margin = rep.margin_log2 if margin is None else min(margin, rep.margin_log2)
        return self.result(True, margin=margin)


def _at(f: GraphFacts, i: int) -> dict:
    lam, value, _ = f.evaluations[i]
    return {"activity": str(lam), "value": str(value)}


def _alpha_le_half(c: Check, f: GraphFacts) -> CheckResult:
    ok = 2 * f.stats.alpha <= f.stats.n
    return c.result(ok, {} if ok else {"alpha": f.stats.alpha, "n": f.stats.n})


def _poly_degree_matches_alpha(c: Check, f: GraphFacts) -> CheckResult:
    ok = f.poly.degree == f.stats.alpha
    return c.result(ok, {} if ok else {"degree": f.poly.degree, "alpha": f.stats.alpha})


def _alekseev_weighted(c: Check, f: GraphFacts) -> CheckResult:
    """The bound at every activity, with equality exactly on unions of equal cliques."""
    if f.stats.n < 1:
        return c.skip("empty graph")
    reports = alekseev_weighted(f)
    result = c.fold(reports, lambda i, rep: {**_at(f, i), "bound": str(rep.exact_value)})
    if result.status == "fail":
        return result
    expect = is_union_of_equal_cliques(f.g)
    for (lam, _, _), rep in zip(f.evaluations, reports):
        if rep.tight != expect:
            witness = {"activity": str(lam), "equality": rep.tight}
            return c.result(False, {**witness, "union_of_equal_cliques": expect})
    return result


def _conjecture_counts(c: Check, f: GraphFacts) -> CheckResult:
    witness = {"count": str(f.count), "n": f.stats.n, "d": f.stats.d}
    return c.fold(conjecture_counts(f), lambda i, rep: witness)


def _conjecture_weighted(c: Check, f: GraphFacts) -> CheckResult:
    return c.fold(conjecture_weighted(f), lambda i, rep: _at(f, i))


def _distinct_histograms(getrandbits, adj, n: int, d: int, count: int) -> dict:
    """Draw `count` orders and map each distinct p-value histogram to its first order.

    Each order is exactly `random.Random.sample(range(n), n)` on the
    generator that owns `getrandbits`: for k = n, `sample` always takes its
    pool branch, which draws position i below m = n - i with m.bit_length()
    random bits, redrawn until below m (also at m = 1), and moves the last
    pool entry into the vacancy. h[p] counts the vertices with p neighbours
    earlier in the order, built in the same loop. The dict keeps first
    appearance order.
    """
    firsts: dict[tuple[int, ...], list[int]] = {}
    for _ in range(count):
        pool = list(range(n))
        order = []
        hist = [0] * (d + 1)
        seen = 0
        for m in range(n, 0, -1):
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            v = pool[j]
            pool[j] = pool[m - 1]
            order.append(v)
            hist[(adj[v] & seen).bit_count()] += 1
            seen |= 1 << v
        firsts.setdefault(tuple(hist), order)
    return firsts


def _order_bound(c: Check, f: GraphFacts) -> CheckResult:
    """P(lam)^d <= prod_v (2(1+lam)^p(v) - 1) on cfg.orders random orders.

    The product depends only on the order's p-value histogram, so a repeated
    histogram has the same verdict and margin; each distinct one is kept with
    its first order as the witness. The verdict is monotone in the product:
    every (order, lam) pair holds iff each activity's smallest product does,
    so those are judged first and give the margin. Only when one fails are
    the pairs judged in draw order, histogram-major, up to the first failure.
    """
    cfg, n, d = f.cfg, f.stats.n, f.stats.d
    if cfg.orders == 0:
        return c.skip("no orders requested")
    getrandbits = _rng(cfg, f.graph_id, "order_bound").getrandbits
    firsts = _distinct_histograms(getrandbits, f.g.adj, n, d, cfg.orders)
    hists, orders = list(firsts), list(firsts.values())
    products = [bd.order_numerators(hists, lam, f.stats.edge_count) for lam, _, _ in f.evaluations]

    def judged(k: int, num: int) -> bd.BoundReport:
        lam, value, value_log2 = f.evaluations[k]
        return bd.order_report(num, products[k][1], lam, n, d).judge(value, value_log2)

    reports = [judged(k, min(nums)) for k, (nums, _) in enumerate(products)]
    pairs: list[tuple[int, int]] = []  # read only by the witness, so formed only on failure
    if not all(rep.holds_exact for rep in reports):
        pairs = [(j, k) for j in range(len(hists)) for k in range(len(products))]
        reports = (judged(k, products[k][0][j]) for j, k in pairs)

    def witness(i: int, rep: bd.BoundReport) -> dict:
        j, k = pairs[i]
        lam, value, _ = f.evaluations[k]
        product = str(rep.exact_value)
        return {"activity": str(lam), "order": orders[j], "value": str(value), "product": product}

    return c.fold(reports, witness)


def _independent_first(c: Check, f: GraphFacts) -> CheckResult:
    if 2 * f.stats.alpha > f.stats.n:
        return c.result(False, {"reason": "alpha exceeds n/2 on a regular graph"})
    return c.fold(independent_first(f), lambda i, rep: _at(f, i))


def _fixed_size(c: Check, f: GraphFacts) -> CheckResult:
    return c.fold(
        fixed_size(f),
        lambda t, rep: {"t": t, "count": str(f.poly.coeffs[t]), "bound_log2": rep.log2_value},
    )


def _cover_certificate(c: Check, f: GraphFacts) -> CheckResult:
    if f.phi is None:
        return c.skip("phi outside (0, d)")
    rng = _rng(f.cfg, f.graph_id, "cover_certificate")
    cert = cv.build_cover(f.g, random_maximal_independent_set(f.g, rng), f.phi)
    ok, reason = cv.verify_cover(f.g, cert)
    if ok:
        return c.result(True, {"phi": f.phi, "seed_size": cert.seed.bit_count()})
    return c.result(
        False, {"phi": f.phi, "reason": reason, "certificate": cert.to_dict()}
    )


def _cover_count(c: Check, f: GraphFacts) -> CheckResult:
    if f.phi is None:
        return c.skip("phi outside (0, d)")
    return c.fold(cover_count(f), lambda i, rep: {**_at(f, i), "phi": f.phi})


def _conjecture_fixed_size(c: Check, f: GraphFacts) -> CheckResult:
    n, d = f.stats.n, f.stats.d
    if n % (2 * d) != 0:
        return c.skip("2d does not divide n")
    # m copies of K_{d,d} have polynomial (2(1+x)^d - 1)^m. Packed at digit
    # width n + 1 as in the engine, every power formed on the way is the
    # polynomial of at most m copies, whose coefficients are at most 2^n, so
    # no digit carries and the power is exact.
    target = _unpack(n, (2 * (1 + (1 << n + 1)) ** d - 1) ** (n // (2 * d)))
    for t, count in enumerate(f.poly.coeffs):
        if count > target.coefficient(t):
            return c.result(
                False, {"t": t, "count": str(count), "extremal": str(target.coefficient(t))}
            )
    return c.result(True)


CHECK_TABLE = {
    check.name: check
    for check in (
        Check("alpha_le_half", MUST_HOLD, 1, _alpha_le_half),
        Check("poly_degree_matches_alpha", MUST_HOLD, None, _poly_degree_matches_alpha),
        Check("alekseev_weighted", MUST_HOLD, None, _alekseev_weighted),
        Check("conjecture_counts", CONJECTURE, 1, _conjecture_counts),
        Check("conjecture_weighted", CONJECTURE, 1, _conjecture_weighted),
        Check("order_bound", MUST_HOLD, 1, _order_bound),
        Check("independent_first", MUST_HOLD, 1, _independent_first),
        Check("fixed_size", MUST_HOLD, 1, _fixed_size),
        Check("cover_certificate", MUST_HOLD, 2, _cover_certificate),
        Check("cover_count", MUST_HOLD, 2, _cover_count),
        Check("conjecture_fixed_size", CONJECTURE, 1, _conjecture_fixed_size),
    )
}
# The checks verify_graph runs, in report order. It looks each one up here at
# call time, so an entry may be replaced or wrapped in place (a tracer does);
# CHECK_TABLE keeps every check's class for records of skipped graphs.
CHECKS = dict(CHECK_TABLE)


def verify_graph(graph_id: str, g: Graph, cfg: RunConfig) -> VerificationRecord:
    """Run every enabled check on one graph and collect the record."""
    line = write_graph6(g)
    if g.n > cfg.cap:
        reason = f"n={g.n} exceeds cap {cfg.cap}"
        checks = [CHECK_TABLE[name].skip(reason) for name in cfg.checks]
        return VerificationRecord(graph_id, line, None, checks)
    facts = GraphFacts(graph_id, g, cfg, graph_stats(g), independence_polynomial(g))
    checks = [CHECKS[name](facts) for name in cfg.checks]
    return VerificationRecord(graph_id, line, facts.stats, checks)


# ---------------------------------------------------------------------------
# Corpus ingestion
# ---------------------------------------------------------------------------


def _spec_int(field: str, signed: bool = False) -> int:
    """A descriptor field: ASCII digits, after a leading '-' only if `signed`."""
    digits = field[1:] if signed and field.startswith("-") else field
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"field {field!r} is not {'an' if signed else 'a nonnegative'} integer")
    return int(field)


def graph_from_spec(spec: str) -> Graph:
    """Build a graph from a generator descriptor.

    Grammar: gen:cycle:N | gen:complete:N | gen:kdd:D | gen:petersen
           | gen:rr:N:D:SEED | gen:union:PART+PART+... (PART is a descriptor
           without the gen: prefix). N and D are ASCII digits; SEED may also
           take a leading '-'. A generator's error is raised prefixed by the
           descriptor, so a union's part is named after the union.
    """
    if not spec.startswith("gen:"):
        raise GraphError(f"not a generator spec: {spec!r}")
    body = spec[4:]
    kind, sep, rest = body.partition(":")
    try:
        if kind == "cycle":
            return gen_cycle(_spec_int(rest))
        if kind == "complete":
            return gen_complete(_spec_int(rest))
        if kind == "kdd":
            return gen_complete_bipartite(_spec_int(rest))
        if kind == "petersen":
            if sep:
                raise ValueError(f"petersen takes no fields, got {rest!r}")
            return gen_petersen()
        if kind == "rr":
            n, d, seed = rest.split(":")
            return gen_random_regular(_spec_int(n), _spec_int(d), _spec_int(seed, signed=True))
        if kind == "union":
            parts = rest.split("+")
            out = graph_from_spec("gen:" + parts[0])
            for part in parts[1:]:
                out = disjoint_union(out, graph_from_spec("gen:" + part))
            return out
    except GraphError as exc:
        raise GraphError(f"{spec}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise GraphError(f"malformed generator spec {spec!r}: {exc}") from exc
    raise GraphError(f"unknown generator kind {kind!r} in {spec!r}")


def load_inputs(inputs: list[str]) -> list[tuple[str, Graph]]:
    """Resolve CLI inputs to (graph_id, Graph) pairs, in input order.

    Each input is a generator descriptor, a raw graph6 line, or a path to a
    corpus file whose lines are descriptors or graph6. Errors in a file carry
    the file and line number (each line is decoded as ASCII on its own); an
    argument that is no file and no graph6 line is named in its error.
    """
    out: list[tuple[str, Graph]] = []
    for item in inputs:
        if item.startswith("gen:"):
            out.append((item, graph_from_spec(item)))
        elif os.path.exists(item):
            with open(item, "rb") as fh:
                lines = fh.read().splitlines()
            for lineno, raw in enumerate(lines, start=1):
                try:
                    line = raw.decode("ascii").strip()
                    if not line or line.startswith("#"):
                        continue
                    if line.startswith("gen:"):
                        out.append((f"{item}:{lineno}:{line}", graph_from_spec(line)))
                    else:
                        out.append((f"{item}:{lineno}", parse_graph6(line)))
                except (GraphError, UnicodeDecodeError) as exc:
                    raise GraphError(f"{item}:{lineno}: {exc}") from exc
        else:
            try:
                out.append((item, parse_graph6(item)))
            except GraphError as exc:
                raise GraphError(f"{item}: no such file, so read as graph6: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Verification runs and reports
# ---------------------------------------------------------------------------


def run_verify(pairs: list[tuple[str, Graph]], cfg: RunConfig) -> tuple[list[VerificationRecord], int]:
    """Verify a corpus; records come back in input order regardless of jobs.

    Exit code, first match wins: 1 internal check failure (a proved
    statement failed, i.e. a bug), 2 counterexample to a conjecture, 3 no
    check passed on any graph (every check skipped, or an empty corpus), 0
    otherwise.
    """
    if cfg.jobs > 1 and len(pairs) > 1:
        # Imported here because it pulls in logging, which a serial run never needs.
        import concurrent.futures

        ids, graphs = zip(*pairs)
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(verify_graph, ids, graphs, [cfg] * len(ids)))
    else:
        records = [verify_graph(graph_id, g, cfg) for graph_id, g in pairs]
    if any(r.internal_failure for r in records):
        return records, 1
    if any(r.counterexample for r in records):
        return records, 2
    if not any(c.status == "pass" for r in records for c in r.checks):
        return records, 3
    return records, 0


def indented_json(obj) -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True), written directly.

    With `indent` set, json runs its pure-Python encoder; this writer emits the
    same text from one recursive pass over str-keyed dicts, lists, tuples,
    str, bool, None, int and float. Any other key or value type raises
    TypeError.
    """
    out: list[str] = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _write_json(o, out: list[str], nl: str):
    # Tests in the order json's encoder makes them: bool and None before int.
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        if math.isfinite(o):
            out.append(float.__repr__(o))
        else:
            out.append("NaN" if o != o else "Infinity" if o > 0 else "-Infinity")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        head = "[" + inner
        for item in o:
            out.append(head)
            head = "," + inner
            _write_json(item, out, inner)
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        head = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(head)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            head = "," + inner
            _write_json(o[key], out, inner)
        out.append(nl + "}")
    else:
        raise TypeError(f"{type(o).__name__} is not JSON serializable")


def report_json(records: list[VerificationRecord], cfg: RunConfig) -> str:
    """Deterministic JSON report; excludes wall-clock fields by design."""
    doc = {
        "config": cfg.to_dict(),
        "records": [r.to_dict() for r in records],
    }
    return indented_json(doc)


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


def check_report_records(records) -> None:
    """Raise ValueError naming the first record the report renderers cannot read.

    Each record is an object. Where present, `stats` is an object (or null)
    whose `n` and `d` are integers (or null), `graph_id` is a string, and
    `checks` is a list of objects with string `name` and `status`.
    """
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        raise ValueError("records is not a list of objects")
    for i, rec in enumerate(records):
        stats = rec.get("stats")
        if stats is not None and not isinstance(stats, dict):
            raise ValueError(f"record {i}: stats is not an object")
        for key in ("n", "d"):
            value = (stats or {}).get(key)
            if value is not None and not isinstance(value, int):
                raise ValueError(f"record {i}: stats.{key} is not an integer")
        if not isinstance(rec.get("graph_id", ""), str):
            raise ValueError(f"record {i}: graph_id is not a string")
        checks = rec.get("checks", [])
        if not isinstance(checks, list) or not all(
            isinstance(chk, dict)
            and isinstance(chk.get("name"), str)
            and isinstance(chk.get("status"), str)
            for chk in checks
        ):
            raise ValueError(f"record {i}: checks is not a list of named checks with a status")


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


def csv_table(header: list[str], rows: Iterable[list]) -> str:
    """CSV text, one newline-ended line per row; None is an empty cell, and a
    cell is quoted only where needed."""
    # Imported here because only the CSV formats need it, not every launch.
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


CSV_BASE_COLUMNS = ["graph_id", "n", "d", "alpha", "edge_count", "counterexample", "graph6"]


def records_to_csv(records: list[dict]) -> str:
    """Summary table: base stats plus one status column per check name."""
    names = sorted({chk["name"] for rec in records for chk in rec.get("checks", [])})
    rows = []
    for rec in sort_records_for_report(records):
        stats = rec.get("stats") or {}
        by_name = {chk["name"]: chk["status"] for chk in rec.get("checks", [])}
        rows.append(
            [rec.get("graph_id", "")]
            + [stats.get(key) for key in ("n", "d", "alpha", "edge_count")]
            + ["true" if rec.get("counterexample") else "false", str(rec.get("graph6", ""))]
            + [by_name.get(name, "") for name in names]
        )
    return csv_table(CSV_BASE_COLUMNS + names, rows)


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


def _single_graph_facts(g: Graph, cfg: RunConfig) -> GraphFacts:
    """Facts for `bounds` and `cover`, with alpha read off the polynomial's degree.

    Only `verify` runs the exact MIS search (`graph_stats`): its
    `poly_degree_matches_alpha` check compares the two.
    """
    poly = independence_polynomial(g)
    stats = GraphStats(g.n, g.regular_degree(), poly.degree, g.edge_count())
    return GraphFacts("", g, cfg, stats, poly)


def bounds_for_graph(g: Graph, cfg: RunConfig) -> tuple[GraphStats, list[bd.BoundReport], list[str]]:
    """Drive every bound evaluator applicable to one graph; each row is judged.

    Returns (stats, reports, notices); regular-only bounds are skipped with a
    notice on irregular input, and the cover rows with a notice when d < 2
    or cfg.phi lies outside (0, d).
    """
    f = _single_graph_facts(g, cfg)
    n, d, alpha = f.stats.n, f.stats.d, f.stats.alpha
    if n < 1:
        return f.stats, [], ["empty graph: nothing to bound"]
    alekseev = _fixed(bd.alekseev_weighted_bound(n, alpha, 1), "alekseev", "activity")
    reports = [alekseev.judge(f.count, f.count_log2)]
    reports += alekseev_weighted(f)
    if d is None or d < 1:
        notice = "graph is not d-regular with d >= 1: regular-only bounds skipped"
        return f.stats, reports, [notice]

    reports.append(bd.kahn_bound(n, d).judge(f.count, f.count_log2))
    reports += conjecture_counts(f)
    kahn = _per_activity(
        f, lambda lam: _fixed(bd.independent_first_bound(n, d, 0, lam), "weighted_kahn", "alpha")
    )
    # The ordering bound on the identity order: one histogram for every activity.
    hist = bd.order_histogram(g, range(n), d)

    def order_row(lam: Fraction) -> bd.BoundReport:
        (num,), scale = bd.order_numerators([hist], lam, f.stats.edge_count)
        return bd.order_report(num, scale, lam, n, d)

    order = _per_activity(f, order_row)
    for row in zip(conjecture_weighted(f), kahn, independent_first(f), order):
        reports += row
    reports += fixed_size(f)

    if d < 2:
        return f.stats, reports, ["d < 2: cover bounds skipped"]
    notices = []
    if f.phi is None:
        notices.append(f"phi {cfg.phi} outside (0, d): cover_count rows skipped")
    return f.stats, reports + cover_count(f), notices


def cover_summary(g: Graph, independent_set: int, cfg: RunConfig) -> dict:
    """Build a certificate at cfg.phi (None: the per-graph default), re-verify
    it, and attach the cover_count rows. A cfg.phi outside (0, d) raises
    ConfigError."""
    if not is_independent(g, independent_set):
        raise GraphError(f"set {mask_vertices(independent_set)} is not independent")
    d = g.regular_degree()
    if d is None or d < 2:
        raise GraphError("cover construction requires a d-regular graph with d >= 2")
    phi = cfg.phi if cfg.phi is not None else cv.phi_default(d)
    if not 0 < phi < d:
        raise ConfigError("phi", f"need 0 < phi < d = {d}")
    cert = cv.build_cover(g, independent_set, phi)
    ok, reason = cv.verify_cover(g, cert)
    f = _single_graph_facts(g, cfg)
    return {
        "certificate": cert.to_dict(),
        "verified": ok,
        "reason": reason,
        "stats": {"n": f.stats.n, "d": f.stats.d, "alpha": f.stats.alpha},
        "cover_count_bounds": [rep.to_dict() for rep in cover_count(f)],
    }
