"""Byte-for-byte golden outputs: reports must not drift across refactors.

`tests/data/golden_report.json` is the `verify` report of

    indsets verify tests/data/golden.g6 --lambda 1/2 --lambda 1 --lambda 2 \
        --lambda 3/7 --orders 30 --seed 5 --out tests/data/golden_report.json

and `tests/data/golden/<graph>.<command>` holds the stdout of `bounds` (JSON
and CSV), `poly` and `cover --set 0` on each graph in `GRAPHS`, with the same
four activities. `cover` is left out for the irregular path, where it is an
error. Graph ids embed the corpus path, so the test runs from the repository
root with the same relative path.

Regenerate every file, from any directory, with

    PYTHONPATH=src python tests/test_golden.py

and only for an intended change to an output's content; say so in the change
description. The files were first written before the bound rows replaced the
hand-written checks, and that refactor left every byte as it was. They were
regenerated twice since. When `fixed_size` started to report its exact
verdict, `golden_report.json` gained 16 `"holds_exact": true,` lines and the
`bounds` files a `holds_exact` for each `fixed_size` row, with nothing else
changed. When the rows with guessed constants were deleted, the `bounds` files
lost the `alon`, `sapozhenko_simple`, `improved_*` and `sapozhenko_alpha`
rows, `cover_count` rows lost `relaxed_log2`, `kahn` and `weighted_kahn` rows
gained `holds_exact`, and the `verify` config lost `C`, `c`, `c_lambda` and
`c_alpha`, with nothing else changed. When `gen_random_regular` became a
sequential pairing, `gen:rr:20:3:7` and `gen:rr:20:4:8` became other graphs,
so the eight `rr20d3` and `rr20d4` files were rewritten and every other file
kept its bytes. When `kdd_exponent_expansion` was deleted, each of the six
regular graphs' `bounds` files lost that row (9 JSON lines, 1 CSV row), with
nothing else changed.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from indsets.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
LAMBDAS = ["--lambda", "1/2", "--lambda", "1", "--lambda", "2", "--lambda", "3/7"]
VERIFY_ARGS = ["verify", "tests/data/golden.g6", *LAMBDAS, "--orders", "30", "--seed", "5"]

GRAPHS = {
    "petersen": "gen:petersen",
    "kdd3": "gen:kdd:3",
    "kdd3x2": "gen:union:kdd:3+kdd:3",
    "cycle5": "gen:cycle:5",
    "path5": "DhC",  # graph6 of the path 0-1-2-3-4: irregular
    "rr20d3": "gen:rr:20:3:7",
    "rr20d4": "gen:rr:20:4:8",
}
COMMANDS = {
    "bounds.json": ["bounds"],
    "bounds.csv": ["bounds", "--format", "csv"],
    "poly.json": ["poly"],
    "cover.json": ["cover", "--set", "0"],
}
CASES = [
    (graph, command)
    for graph in GRAPHS
    for command in COMMANDS
    if not (graph == "path5" and command == "cover.json")
]


def _argv(graph: str, command: str) -> list[str]:
    head, *flags = COMMANDS[command]
    return [head, GRAPHS[graph], *flags, *LAMBDAS]


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


def test_golden_report_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    assert main(VERIFY_ARGS + ["--out", str(out)]) == 0
    assert "counterexamples=0" in capsys.readouterr().out
    assert out.read_bytes() == (DATA / "golden_report.json").read_bytes()


@pytest.mark.parametrize("graph,command", CASES)
def test_single_graph_command_byte_identical(graph, command, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = (DATA / "golden" / f"{graph}.{command}").read_text(encoding="ascii")
    assert _stdout(_argv(graph, command)) == want


def write_goldens():
    os.chdir(ROOT)
    _stdout(VERIFY_ARGS + ["--out", str(DATA / "golden_report.json")])
    (DATA / "golden").mkdir(exist_ok=True)
    for graph, command in CASES:
        text = _stdout(_argv(graph, command))
        (DATA / "golden" / f"{graph}.{command}").write_text(text, encoding="ascii")


if __name__ == "__main__":
    sys.exit(write_goldens())
