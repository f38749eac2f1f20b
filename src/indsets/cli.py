"""Command-line front end: poly | bounds | verify | cover | report."""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import harness
from .cover import CoverCertificate, verify_cover
from .graphs import GraphError, mask_of
from .harness import RunConfig

_parser: argparse.ArgumentParser | None = None


_FLAGS = {
    "--lambda": dict(
        dest="lambdas",
        action="append",
        metavar="P/Q",
        help="activity as an exact rational, repeatable (default: 1/2 1 2)",
    ),
    "--phi": dict(type=int, default=None, help="cover threshold (default: per-graph)"),
    "--seed": dict(type=int, default=0),
    "--cap": dict(type=int, default=28, help="vertex cap for exact runs"),
    "--orders": dict(type=int, default=20, help="random orders per graph"),
    "--checks": dict(default=None, help="comma-separated check names (default: all)"),
    "--jobs": dict(type=int, default=1, help="worker processes"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--out": dict(default=None, metavar="PATH"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str):
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def _config_from_args(args) -> RunConfig:
    """RunConfig from the flags this subcommand has; the rest keep their defaults."""
    given = vars(args)
    names = ("phi", "seed", "cap", "orders", "jobs")
    kwargs = {name: given[name] for name in names if name in given}
    if given.get("lambdas"):
        kwargs["lambdas"] = tuple(map(_activity, given["lambdas"]))
    if given.get("checks") is not None:
        kwargs["checks"] = tuple(s for s in given["checks"].split(",") if s)
    return RunConfig(**kwargs)


def _activity(text: str) -> Fraction:
    # Fraction also reads non-ASCII digits and "_" separators; take neither.
    try:
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        lam = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed --lambda value {text!r}") from exc
    if lam <= 0:
        raise ValueError(f"nonpositive --lambda value {text!r}")
    return lam


def _single_graph(spec: str):
    pairs = harness.load_inputs([spec])
    if len(pairs) != 1:
        raise GraphError(f"expected exactly one graph, got {len(pairs)} from {spec!r}")
    return pairs[0]


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_poly(args) -> int:
    cfg = _config_from_args(args)
    graph_id, g = _single_graph(args.input)
    summary = harness.poly_summary(g, cfg)
    summary["graph_id"] = graph_id
    _emit(harness.indented_json(summary), args.out)
    return 0


def cmd_bounds(args) -> int:
    cfg = _config_from_args(args)
    graph_id, g = _single_graph(args.input)
    stats, reports, notices = harness.bounds_for_graph(g, cfg)
    for notice in notices:
        print(f"note: {notice}", file=sys.stderr)
    if args.format == "csv":
        header = ["name", "log2_value", "exact_value", "holds_exact", "margin_log2"]
        rows = [
            [r.name, r.log2_value, r.exact_value, str(r.holds_exact).lower(), r.margin_log2]
            for r in reports
        ]
        _emit(harness.csv_table(header, rows), args.out)
    else:
        doc = {
            "graph_id": graph_id,
            "stats": dict(vars(stats)),
            "reports": [rep.to_dict() for rep in reports],
        }
        _emit(harness.indented_json(doc), args.out)
    return 0


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    pairs = harness.load_inputs(args.inputs)
    start = time.monotonic()
    records, code = harness.run_verify(pairs, cfg)
    elapsed = time.monotonic() - start
    for line in harness.summary_lines(records):
        print(line)
    if code == 3:
        skipped = f"every check was skipped (graphs={len(records)})"
        print(f"error: no check passed; {skipped}", file=sys.stderr)
    print(f"elapsed={elapsed:.2f}s", file=sys.stderr)
    if args.out:
        _emit(harness.report_json(records, cfg), args.out)
    return code


def cmd_cover(args) -> int:
    if args.certificate is not None:
        for flag, value in (("--set", args.set), ("--phi", args.phi), ("--lambda", args.lambdas)):
            if value is not None:
                args.parser.error(f"argument {flag}: not allowed with argument --certificate")
    cfg = _config_from_args(args)
    graph_id, g = _single_graph(args.input)
    if args.certificate is not None:
        try:
            with open(args.certificate, "r", encoding="ascii") as fh:
                cert = CoverCertificate.from_json(fh.read(), g.n)
        except ValueError as exc:
            raise ValueError(f"{args.certificate}: {exc}") from exc
        ok, reason = verify_cover(g, cert)
        _emit(json.dumps({"graph_id": graph_id, "verified": ok, "reason": reason}), args.out)
        return 0 if ok else 1
    try:
        entries = args.set.split(",") if args.set else []
        vertices = [harness._spec_int(s, signed=True) for s in entries]
    except ValueError as exc:
        raise GraphError(f"malformed --set value {args.set!r}") from exc
    for v in vertices:
        if not 0 <= v < g.n:
            raise GraphError(f"--set vertex {v} out of range 0..n-1 for n={g.n}")
    summary = harness.cover_summary(g, mask_of(vertices), cfg)
    summary["graph_id"] = graph_id
    _emit(harness.indented_json(summary), args.out)
    return 0 if summary["verified"] else 1


def cmd_report(args) -> int:
    try:
        with open(args.records, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("top level is not a JSON object")
        records = doc.get("records", [])
        harness.check_report_records(records)
        if args.format == "csv":
            text = harness.records_to_csv(records)
        else:
            doc["records"] = harness.sort_records_for_report(records)
            text = harness.indented_json(doc)
    except RecursionError as exc:
        # Reading and writing both recurse once per level of nesting.
        raise ValueError(f"{args.records}: JSON nested too deeply") from exc
    except ValueError as exc:
        raise ValueError(f"{args.records}: {exc}") from exc
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indsets",
        description="Exact independent-set counting and bound certification for regular graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="independence polynomial of one graph")
    p_poly.add_argument("input", help="graph6 line, gen: descriptor, or file with one graph")
    _add_flags(p_poly, "--lambda", "--out")
    p_poly.set_defaults(func=cmd_poly)

    p_bounds = sub.add_parser("bounds", help="every applicable bound for one graph")
    p_bounds.add_argument("input")
    _add_flags(p_bounds, "--lambda", "--phi", "--format", "--out")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="batch verification over a corpus")
    p_verify.add_argument("inputs", nargs="+", help="corpus files and/or gen: descriptors")
    _add_flags(
        p_verify, "--lambda", "--phi", "--seed", "--cap", "--orders", "--checks", "--jobs", "--out"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_cover = sub.add_parser("cover", help="build and verify a cover certificate")
    p_cover.add_argument("input")
    p_cover.add_argument("--set", default=None, help="independent set, e.g. 0,2,5")
    p_cover.add_argument(
        "--certificate",
        default=None,
        help="verify an existing certificate JSON instead (takes no --set, --phi or --lambda)",
    )
    _add_flags(p_cover, "--lambda", "--phi", "--out")
    p_cover.set_defaults(func=cmd_cover, parser=p_cover)

    p_report = sub.add_parser("report", help="render a verify report as CSV or sorted JSON")
    p_report.add_argument("records", help="JSON report written by verify --out")
    _add_flags(p_report, "--format", "--out")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    """Run one command. The parser is built on the first call and reused."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
