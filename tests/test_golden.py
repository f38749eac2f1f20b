"""Byte-for-byte golden report: `verify` output must not drift across refactors.

`tests/data/golden_report.json` was written, from the repository root, by

    indsets verify tests/data/golden.g6 --lambda 1/2 --lambda 1 --lambda 2 \
        --lambda 3/7 --orders 30 --seed 5 --out tests/data/golden_report.json

Graph ids embed the corpus path, so the test runs from the repository root
with the same relative path. Regenerate the file only for an intended change
to the report's content, and say so in the change description.
"""

from pathlib import Path

from indsets.cli import main

ROOT = Path(__file__).resolve().parent.parent
ARGS = [
    "verify",
    "tests/data/golden.g6",
    "--lambda", "1/2",
    "--lambda", "1",
    "--lambda", "2",
    "--lambda", "3/7",
    "--orders", "30",
    "--seed", "5",
]


def test_golden_report_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    assert main(ARGS + ["--out", str(out)]) == 0
    assert "counterexamples=0" in capsys.readouterr().out
    assert out.read_bytes() == (ROOT / "tests" / "data" / "golden_report.json").read_bytes()
