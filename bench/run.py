"""Benchmark of the indsets certifier, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs the package from the `src/` tree of the checkout that holds this
file and keeps its scratch files under `.bench_work/` there. The seed fixes
the inputs. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`:

- `--trace 0`: the end-to-end metrics, measured with no span recording.
- `--trace 1`: per-layer self times and counts from a traced run, plus the
  tracing overhead and how much of the traced wall time the spans cover.

Each run first executes the workload once in a fresh child process. That
run gives the peak RSS and the reference outputs, which are checked in
full: exit codes, must-hold verdicts, counterexamples, skips for the cap,
and polynomials against `brute_force_polynomial`. Every timed pass must then
reproduce those outputs byte for byte; an operation that fails counts in
`failed` and does not stop the run.

Exit codes: 0 after a run, whatever it found; 2 when the package source is
missing or the arguments are bad, with no result printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from indsets import cli; "
    "sys.exit(cli.main(['poly', 'gen:cycle:5']))"
)

# (module, attribute, span name) of each public name the package calls
# through a module attribute at run time, in report order. The traced passes
# replace these attributes with span wrappers; the package is not changed.
TARGETS = [
    ("harness", "gen_random_regular", "graphs.gen_random_regular"),
    ("harness", "parse_graph6", "graphs.parse_graph6"),
    ("harness", "write_graph6", "graphs.write_graph6"),
    ("harness", "graph_stats", "graphs.graph_stats"),
    ("harness", "independence_polynomial", "polynomial.independence_polynomial"),
    ("bounds", "order_bound", "bounds.order_bound"),
    ("cover", "build_cover", "cover.build_cover"),
    ("cover", "verify_cover", "cover.verify_cover"),
    ("harness", "verify_graph", "harness.verify_graph"),
    ("harness", "load_inputs", "harness.load_inputs"),
    ("harness", "report_json", "harness.report_json"),
    ("harness", "bounds_for_graph", "harness.bounds_for_graph"),
    ("harness", "cover_summary", "harness.cover_summary"),
    ("harness", "poly_summary", "harness.poly_summary"),
]
LAYERS = [name for _, _, name in TARGETS]
# Layers that reject bad input by raising; their errors count as `.failed`.
RAISING = {
    "graphs.gen_random_regular",
    "graphs.parse_graph6",
    "harness.load_inputs",
    "harness.cover_summary",
}


def per_layer_spec(check_names) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in LAYERS:
        out += [(f"{name}.s", "s", "lower"), (f"{name}.calls", "count", "lower")]
        if name in RAISING:
            out.append((f"{name}.failed", "count", "lower"))
    out.append(("graphs.gen_random_regular.ok_frac", "ratio", "higher"))
    for check in check_names:
        base = f"harness.check.{check}"
        out += [
            (f"{base}.s", "s", "lower"),
            (f"{base}.calls", "count", "lower"),
            (f"{base}.skip", "count", "lower"),
            (f"{base}.failed", "count", "lower"),
        ]
    out += [
        ("harness.report_bytes", "bytes", "lower"),
        ("cli.self", "s", "lower"),
        ("cli.calls", "count", "lower"),
        ("cli.failed", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
    return out


END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]


class Run:
    """One benchmark run: the reference, the timed passes, and the tallies."""

    def __init__(self, wl, indsets):
        self.wl = wl
        self.indsets = indsets
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.reference_bad: list[int] = []
        self.peak_rss_kib = 0

    def problem(self, text: str):
        if text not in self.problems:
            self.problems.append(text)

    def load_reference(self):
        """Run the workload once in a fresh child and check its outputs."""
        work = Path(workloads.WORK)
        commands, result = work / "child_commands.json", work / "child_result.json"
        commands.write_text(json.dumps(self.wl.commands), encoding="ascii")
        result.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(commands), str(result)],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=150,
        )
        if proc.returncode != 0 or not result.exists():
            self.problem(f"reference child exited {proc.returncode}")
            self.reference = [(None, "", None)] * len(self.wl.commands)
            self.reference_bad = list(self.wl.ops_per_command)
            return
        doc = json.loads(result.read_text(encoding="ascii"))
        self.reference = [tuple(out) for out in doc["outputs"]]
        self.peak_rss_kib = doc["peak_rss_kib"]
        self.reference_bad = self.wl.check_reference(
            self.indsets, self.reference, doc["polys"], self.problems
        )

    def one_pass(self, main, with_probes: bool) -> tuple[float, list[float]]:
        """Every command once; returns the pass wall time and op latencies."""
        wl, harness = self.wl, self.indsets.harness
        latencies: list[float] = []
        outputs = []
        hook = timed_verify_graph(harness, latencies) if wl.graph_ops else contextlib.nullcontext()
        with hook:
            start = time.perf_counter()
            for argv in wl.commands:
                t = time.perf_counter()
                outputs.append(workloads.run_cli(main, argv))
                if not wl.graph_ops:
                    latencies.append(time.perf_counter() - t)
            if with_probes:
                wl.run_probes(harness, self.indsets.GraphError, self.problem)
            wall = time.perf_counter() - start
        for argv, (rc, stdout), ref, bad, ops in zip(
            wl.commands, outputs, self.reference, self.reference_bad, wl.ops_per_command
        ):
            self.attempted += ops
            if (rc, stdout, workloads.read_output(argv)) == ref:
                self.failed += bad
            else:
                self.failed += ops
                self.problem(f"{' '.join(argv)}: output differs from the reference run")
        return wall, latencies

    def passes(self, main, seconds: float, with_probes=False, between=None):
        """Closed loop of passes for about `seconds`: a pass starts if it
        should end no later than half a pass after the deadline.

        Returns each pass's wall time and its list of op latencies.
        `between` runs after each pass, outside the measured time.
        """
        walls: list[float] = []
        latencies: list[list[float]] = []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() + statistics.median(walls) / 2 <= deadline:
            wall, lat = self.one_pass(main, with_probes)
            walls.append(wall)
            latencies.append(lat)
            if between:
                start = time.perf_counter()
                between()
                deadline += time.perf_counter() - start
        return walls, latencies

    def launch(self, times: list[float]):
        """Time one fresh interpreter that imports the package and runs a small command."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, stdout=subprocess.DEVNULL)
        # A blocking wait returns as soon as the child exits; wait(timeout=...)
        # polls with sleeps of up to 50 ms, which would quantise the timing.
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        if rc != 0:
            self.problem(f"set-up launch exited {rc}")

    def end_to_end(self, seconds: float) -> dict[str, dict]:
        # Launch times drift with the machine's load over a second or more, so
        # the launches are spread between the passes rather than run in a block.
        setup: list[float] = []

        def launch_if_due():
            if len(setup) < SETUP_LAUNCHES:
                self.launch(setup)

        self.launch([])  # fills the bytecode cache
        walls, per_pass = self.passes(self.indsets.cli.main, seconds, between=launch_if_due)
        while len(setup) < SETUP_LAUNCHES:
            self.launch(setup)
        # An op's latency is its median over the passes, which filters out
        # the seconds-long slow spells of a shared machine; the percentiles
        # are then taken over the ops.
        lat = [statistics.median(samples) for samples in zip(*per_pass)]
        print(
            f"{self.wl.name}: {len(walls)} passes, {len(lat)} ops, "
            f"each op's latency the median of {len(walls)} samples",
            file=sys.stderr,
        )
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_ms_p50": 1000 * statistics.median(lat),
            "op_ms_p90": 1000 * statistics.quantiles(lat, n=10)[8],
            "ok_frac": (self.attempted - self.failed) / self.attempted,
            "peak_rss_mb": self.peak_rss_kib / 1024,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def per_layer(self, seconds: float, spans_path: Path) -> dict[str, dict]:
        """Half the time untraced, half traced; values are per traced pass."""
        indsets = self.indsets
        with_probes = bool(self.wl.probes)
        plain, _ = self.passes(indsets.cli.main, seconds / 2, with_probes)
        rec = spans.SpanRecorder(op_names={"harness.verify_graph"})
        traced_main = spans.wrap(
            rec, "cli", indsets.cli.main, lambda rc: "ok" if rc == 0 else "fail"
        )
        targets = [(getattr(indsets, module), attr, name) for module, attr, name in TARGETS]
        with spans.Installed(rec, targets, indsets.harness.CHECKS):
            traced, _ = self.passes(traced_main, seconds / 2, with_probes)
        rec.write_jsonl(str(spans_path))

        coverage = rec.root_time() / sum(traced)
        if not 0.9 <= coverage <= 1.0 + 1e-9:
            self.problem(f"spans cover {coverage:.3f} of the traced wall time")
        if min(rec.self_times(), default=0.0) < -1e-6:
            self.problem("a span has negative self time: spans overlap")

        totals = rec.totals()
        count = len(traced)
        empty = {"s": 0.0, "calls": 0, **{k: 0 for k in spans.OUTCOMES}}

        def row(name):
            return totals.get(name, empty)

        values: dict[str, float] = {}
        for name in LAYERS:
            values[f"{name}.s"] = row(name)["s"] / count
            values[f"{name}.calls"] = row(name)["calls"] / count
            if name in RAISING:
                values[f"{name}.failed"] = row(name)["error"] / count
        gen = row("graphs.gen_random_regular")
        values["graphs.gen_random_regular.ok_frac"] = gen["ok"] / gen["calls"] if gen["calls"] else 1.0
        for check in indsets.harness.CHECKS:
            r = row(f"harness.check.{check}")
            base = f"harness.check.{check}"
            values[f"{base}.s"] = r["s"] / count
            values[f"{base}.calls"] = r["calls"] / count
            values[f"{base}.skip"] = r["skip"] / count
            values[f"{base}.failed"] = (r["fail"] + r["error"]) / count
        values["harness.report_bytes"] = sum(len(ref[2] or "") for ref in self.reference)
        values["cli.self"] = row("cli")["s"] / count
        values["cli.calls"] = row("cli")["calls"] / count
        values["cli.failed"] = (row("cli")["fail"] + row("cli")["error"]) / count
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        values["trace.coverage"] = coverage

        print(
            f"{self.wl.name}: {len(plain)} untraced and {count} traced passes, "
            f"{len(rec.names)} spans written to {spans_path}",
            file=sys.stderr,
        )
        selfs = sorted(((r["s"], name) for name, r in totals.items()), reverse=True)
        whole = sum(s for s, _ in selfs)
        for s, name in selfs[:6]:
            print(f"  self time {100 * s / whole:5.1f}%  {name}", file=sys.stderr)

        units = {name: unit for name, unit, _ in per_layer_spec(indsets.harness.CHECKS)}
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


@contextlib.contextmanager
def timed_verify_graph(harness, latencies: list[float]):
    """Time each `harness.verify_graph` call from the benchmark's side."""
    inner = harness.verify_graph

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - start)

    harness.verify_graph = timed
    try:
        yield
    finally:
        harness.verify_graph = inner


def import_package():
    """The package from this checkout's src/, or None if it is not there."""
    if not (SRC / "indsets" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import indsets
    import indsets.bounds
    import indsets.cli
    import indsets.cover
    import indsets.harness

    if Path(indsets.__file__).resolve().parent != (SRC / "indsets").resolve():
        return None
    return indsets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    indsets = import_package()
    if indsets is None:
        print(f"error: no indsets package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    wl = workloads.build(args.workload, args.seed)
    run = Run(wl, indsets)
    run.load_reference()
    if args.trace:
        spans_path = Path(workloads.WORK) / f"spans_{args.workload}.jsonl"
        metrics = run.per_layer(args.seconds, spans_path)
    else:
        metrics = run.end_to_end(args.seconds)
    for text in run.problems[:40]:
        print(f"problem: {text}", file=sys.stderr)
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
