"""Run CLI commands once in a fresh interpreter; record outputs and peak RSS.

    python3 bench/child.py COMMANDS.json RESULT.json

COMMANDS.json holds a list of argv lists for `indsets.cli.main`. RESULT.json
receives each command's [exit code, stdout, --out file text], the
coefficients of every polynomial the engine returned keyed by graph6, and
the process's ru_maxrss in KiB, read before the result is serialised.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from indsets import cli, harness  # noqa: E402

import workloads  # noqa: E402


def main(commands_path: str, result_path: str) -> int:
    commands = json.loads(Path(commands_path).read_text(encoding="ascii"))
    polys: dict[str, list[str]] = {}
    engine = harness.independence_polynomial

    def capture(g, *args, **kwargs):
        poly = engine(g, *args, **kwargs)
        polys[harness.write_graph6(g)] = [str(c) for c in poly.coeffs]
        return poly

    harness.independence_polynomial = capture
    outputs = []
    for argv in commands:
        rc, stdout = workloads.run_cli(cli.main, argv)
        outputs.append([rc, stdout, workloads.read_output(argv)])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    doc = {"outputs": outputs, "polys": polys, "peak_rss_kib": peak_kib}
    Path(result_path).write_text(json.dumps(doc), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
