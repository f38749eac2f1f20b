"""The benchmark's workloads: inputs built from a seed, and the checks on outputs.

Every operation goes through the package's public CLI entry point,
`indsets.cli.main`, in one process with `jobs=1`, each call issued after the
previous one returns (a closed loop with one client).

- verify_small: `verify` on 120 d-regular graphs, d in {3, 4, 5}, n <= 28,
  default config. `order_bound` dominates.
- verify_reach: `verify --cap 64` on 12 graphs, d in {3, 5}, n in
  {40, 48, 56, 64}, with three graphs of d = 5 at n in {56, 64}.
  `independence_polynomial` dominates.
- single_graph: `poly`, `bounds` and `cover --set 0` on 192 `gen:rr:20:D:S`
  descriptors, d in {3, 4}. The traced run adds generator probes at
  d in {5, 6, 7}; see SingleGraph.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from pathlib import Path

import corpus

WORK = ".bench_work"


def run_cli(main, argv) -> tuple[int | None, str]:
    """One CLI call with stdout captured and stderr dropped; rc None if it raised."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(argv))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rc = None
    return rc, out.getvalue()


def read_output(argv) -> str | None:
    """The file a command wrote with --out, if any."""
    if "--out" not in argv:
        return None
    try:
        return Path(argv[argv.index("--out") + 1]).read_text(encoding="ascii")
    except OSError:
        return None


class VerifyCorpus:
    """`verify` over a corpus file of graph6 lines from the benchmark's generator.

    An operation is one graph verified; its latency is taken around
    `harness.verify_graph`.
    """

    graph_ops = True
    probes: list = []

    def __init__(self, name, seed, copies, extra_args=()):
        self.name = name
        self.graphs = corpus.regular_corpus(seed, copies)
        self.lines = [corpus.graph6(n, edges) for n, _, _, edges in self.graphs]
        corpus_path = f"{WORK}/{name}.g6"
        Path(corpus_path).write_text("\n".join(self.lines) + "\n", encoding="ascii")
        report = f"{WORK}/{name}.report.json"
        self.commands = [["verify", corpus_path, *extra_args, "--out", report]]
        self.ops_per_command = [len(self.lines)]
        # The brute-force oracle costs 2^n; check the first copy of each
        # (d, n) class with n <= 24.
        self.brute_indices = {
            i for i, (n, _, k, _) in enumerate(self.graphs) if n <= 24 and k == 0
        }

    def check_reference(self, indsets, outputs, polys, problems) -> list[int]:
        """Failed operations per command in the reference outputs."""
        (rc, stdout, report), = outputs
        bad = set()
        try:
            records = json.loads(report)["records"] if report else []
        except (ValueError, KeyError):
            records = []
        if len(records) != len(self.lines):
            problems.append(f"{self.name}: report has {len(records)} records, want {len(self.lines)}")
            return [len(self.lines)]
        check_names = list(indsets.harness.CHECKS)
        for i, (rec, line, (n, d, _, edges)) in enumerate(zip(records, self.lines, self.graphs)):
            why = _record_problem(rec, line, n, d, check_names)
            if why is None and line not in polys:
                why = "engine never ran"
            if why is None and i in self.brute_indices:
                oracle = indsets.brute_force_polynomial(indsets.build_graph(n, edges))
                if [str(c) for c in oracle.coeffs] != polys[line]:
                    why = "polynomial differs from brute_force_polynomial"
            if why:
                bad.add(i)
                problems.append(f"{self.name}: graph {i} ({line}): {why}")
        if rc != 0:
            problems.append(f"{self.name}: verify exited {rc}")
            if not bad:
                bad = set(range(len(self.lines)))
        if any(s.startswith(("FAIL", "COUNTEREXAMPLE")) for s in stdout.splitlines()):
            problems.append(f"{self.name}: verify printed a FAIL or COUNTEREXAMPLE line")
        return [len(bad)]


def _record_problem(rec, line, n, d, check_names) -> str | None:
    if rec.get("graph6") != line:
        return f"graph6 {rec.get('graph6')!r} is not the corpus line"
    stats = rec.get("stats")
    if stats is None:
        return "no stats: graph skipped"
    if (stats["n"], stats["d"]) != (n, d):
        return f"stats n={stats['n']} d={stats['d']}, want n={n} d={d}"
    if rec.get("counterexample"):
        return "COUNTEREXAMPLE"
    if [c["name"] for c in rec["checks"]] != check_names:
        return "check list differs from harness.CHECKS"
    for chk in rec["checks"]:
        if chk["status"] == "fail":
            return f"{chk['name']} failed"
        if chk["status"] == "skip" and "cap" in chk.get("witness", {}).get("reason", ""):
            return f"{chk['name']} skipped for the cap"
    return None


class SingleGraph:
    """`poly`, `bounds` and `cover --set 0` on random-regular descriptors.

    An operation is one command; its latency is taken around `cli.main`.
    Timed operations use d in {3, 4}. At d >= 5 the package's pairing
    generator restarts a geometrically distributed number of times, which
    made the spread across seeds too wide to bound (IQR/median 0.13 on the
    pass time and 0.22 on p90 in a simulation from 360 measured
    descriptors), and at d in {6, 7} it gives up, which a timed operation
    may not do. Those degrees are exercised by `probes`, which the traced
    run calls directly through `harness.gen_random_regular`.
    """

    graph_ops = False
    n = 20
    degrees = (3, 4)
    per_degree = 96
    brute_per_degree = 8
    probe_degrees = (5, 6, 7)
    probes_per_degree = 3

    def __init__(self, name, seed):
        self.name = name
        rng = random.Random(f"{name}:{seed}")
        self.descriptors = [
            (d, f"gen:rr:{self.n}:{d}:{rng.randrange(1 << 31)}")
            for d in self.degrees
            for _ in range(self.per_degree)
        ]
        self.commands = []
        for _, desc in self.descriptors:
            self.commands += [["poly", desc], ["bounds", desc], ["cover", desc, "--set", "0"]]
        self.ops_per_command = [1] * len(self.commands)
        self.probes = [
            (self.n, d, rng.randrange(1 << 31))
            for d in self.probe_degrees
            for _ in range(self.probes_per_degree)
        ]
        self.brute_descriptors = {
            desc
            for i, (_, desc) in enumerate(self.descriptors)
            if i % self.per_degree < self.brute_per_degree
        }

    def check_reference(self, indsets, outputs, polys, problems) -> list[int]:
        bad = []
        for argv, (rc, stdout, _) in zip(self.commands, outputs):
            why = self._command_problem(indsets, argv, rc, stdout)
            if why:
                problems.append(f"{self.name}: {' '.join(argv)}: {why}")
            bad.append(1 if why else 0)
        return bad

    def _command_problem(self, indsets, argv, rc, stdout) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        cmd, desc = argv[0], argv[1]
        d = int(desc.split(":")[3])
        if cmd == "poly":
            coeffs = [int(c) for c in doc["polynomial"]["coeffs"]]
            if doc["count"] != str(sum(coeffs)) or doc["alpha"] != len(coeffs) - 1:
                return "count or alpha disagrees with the coefficients"
            if desc in self.brute_descriptors:
                g = indsets.harness.graph_from_spec(desc)
                if tuple(coeffs) != indsets.brute_force_polynomial(g).coeffs:
                    return "polynomial differs from brute_force_polynomial"
        elif cmd == "bounds":
            if (doc["stats"]["n"], doc["stats"]["d"]) != (self.n, d):
                return "wrong stats"
            failed = [r["name"] for r in doc["reports"] if r.get("holds_exact") is False]
            if failed:
                return f"bounds fail: {failed}"
        elif not doc.get("verified") or doc["stats"]["d"] != d:
            return f"cover not verified: {doc.get('reason')}"
        return None

    def run_probes(self, harness, graph_error, report):
        """Each generator call either delivers its graph or fails fast with the reason."""
        for n, d, s in self.probes:
            try:
                g = harness.gen_random_regular(n, d, s)
            except graph_error as exc:
                if "pairing attempts" not in str(exc):
                    report(f"probe gen:rr:{n}:{d}:{s}: unexpected error {exc}")
                continue
            if g.n != n or g.regular_degree() != d:
                report(f"probe gen:rr:{n}:{d}:{s}: not a {d}-regular graph on {n} vertices")


def build(name: str, seed: int):
    Path(WORK).mkdir(exist_ok=True)
    if name == "verify_small":
        copies = {(d, n): 4 for d in (3, 4, 5) for n in range(10, 29, 2)}
        return VerifyCorpus(name, seed, copies)
    if name == "verify_reach":
        # One graph per (d, n) class, plus two more of d = 5 at n in {56, 64}.
        # The polynomial's cost varies by about 7% between random graphs of
        # one d = 5 class and by 20-30% at d = 3, so the extra copies put the
        # median and the 90th percentile inside a d = 5 class and make the
        # peak RSS a maximum over three graphs.
        copies = {(d, n): 1 for d in (3, 5) for n in (40, 48, 56, 64)}
        copies[5, 56] = copies[5, 64] = 3
        return VerifyCorpus(name, seed, copies, ("--cap", "64"))
    if name == "single_graph":
        return SingleGraph(name, seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("verify_small", "verify_reach", "single_graph")
