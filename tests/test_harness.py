"""Corpus ingestion, named checks, records, reports, and the CLI."""

import csv
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indsets import bounds as bd
from indsets import cli, harness
from indsets.cli import main
from indsets.graphs import (
    GraphError,
    build_graph,
    gen_cycle,
    gen_petersen,
    gen_random_regular,
    graph_stats,
    is_independent,
    write_graph6,
)
from indsets.harness import (
    CHECKS,
    CheckResult,
    ConfigError,
    GraphFacts,
    RunConfig,
    VerificationRecord,
    bounds_for_graph,
    cover_summary,
    graph_from_spec,
    load_inputs,
    poly_summary,
    random_maximal_independent_set,
    records_to_csv,
    report_json,
    run_verify,
    sort_records_for_report,
    verify_graph,
)
from indsets.polynomial import IndependencePolynomial
from test_golden import GRAPHS as GOLDEN_GRAPHS


def test_graph_from_spec_kinds():
    assert graph_from_spec("gen:cycle:5").n == 5
    assert graph_from_spec("gen:complete:4").edge_count() == 6
    assert graph_from_spec("gen:kdd:3").edge_count() == 9
    assert graph_from_spec("gen:petersen").n == 10
    assert graph_from_spec("gen:rr:12:3:7").regular_degree() == 3
    u = graph_from_spec("gen:union:cycle:3+cycle:4+kdd:2")
    assert u.n == 11 and u.regular_degree() == 2


def test_graph_from_spec_errors():
    for bad in ["cycle:5", "gen:wat:3", "gen:cycle:x", "gen:rr:12:3", "gen:cycle:1"]:
        with pytest.raises(GraphError):
            graph_from_spec(bad)
    for bad in ["gen:petersen:junk", "gen:petersen:", "gen:union:cycle:3+petersen:zz"]:
        with pytest.raises(GraphError, match="malformed generator spec"):
            graph_from_spec(bad)


def test_graph_from_spec_fields_are_ascii_digits(tmp_path, capsys):
    bad = [
        "gen:cycle:\uff15",
        "gen:cycle:1_0",
        "gen:cycle: 7 ",
        "gen:cycle:+5",
        "gen:cycle:-3",
        "gen:kdd:\u0663",
        "gen:rr:20:3:+1",
        "gen:rr:20:-3:1",
        "gen:rr:20:3:-",
        "gen:union:cycle:1_0",
    ]
    for spec in bad:
        with pytest.raises(GraphError, match="malformed generator spec"):
            graph_from_spec(spec)
    assert graph_from_spec("gen:rr:20:3:-4").regular_degree() == 3
    assert main(["verify", "gen:cycle:\uff15"]) == 1
    assert capsys.readouterr().err == (
        "error: malformed generator spec 'gen:cycle:\uff15': "
        "field '\uff15' is not a nonnegative integer\n"
    )
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("gen:cycle:5\ngen:cycle:1_0\n")
    assert main(["verify", str(corpus)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {corpus}:2: malformed generator spec")


def test_load_inputs_mixed_file(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# comment\ngen:cycle:5\n\nDhc\n")
    pairs = load_inputs([str(corpus)])
    assert len(pairs) == 2
    assert pairs[0][0].endswith("gen:cycle:5")
    assert pairs[1][0] == f"{corpus}:4"
    assert pairs[0][1] == pairs[1][1] == gen_cycle(5)


def test_load_inputs_reports_offending_line(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("gen:cycle:5\n!!!not graph6!!!\n")
    with pytest.raises(GraphError) as err:
        load_inputs([str(corpus)])
    assert ":2" in str(err.value)


def test_load_inputs_literal_graph6():
    pairs = load_inputs(["Dhc"])
    assert pairs[0][1] == gen_cycle(5)
    prefix = "^no-such-file-or-spec: no such file, so read as graph6: "
    with pytest.raises(GraphError, match=prefix):
        load_inputs(["no-such-file-or-spec"])


def test_cli_names_an_argument_that_is_no_file_and_no_graph6(tmp_path, capsys):
    missing = tmp_path / "missing.g6"
    assert main(["verify", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {missing}: no such file, so read as graph6: malformed graph6 size header\n"
    )
    assert captured.out == ""


def test_cli_locates_a_non_ascii_byte_in_a_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"gen:cycle:5\r\nDhc\r\nD\xc3hc\r\n")
    assert main(["verify", str(corpus)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {corpus}:3: 'ascii' codec can't decode byte 0xc3 in position 1: "
        "ordinal not in range(128)\n"
    )
    assert captured.out == ""


def test_verify_graph_all_pass_on_cycle():
    cfg = RunConfig(orders=5)
    rec = verify_graph("gen:cycle:5", graph_from_spec("gen:cycle:5"), cfg)
    assert rec.stats is not None and rec.stats.alpha == 2
    statuses = {c.name: c.status for c in rec.checks}
    assert statuses["conjecture_counts"] == "pass"
    assert statuses["order_bound"] == "pass"
    assert statuses["cover_certificate"] == "pass"
    assert statuses["conjecture_fixed_size"] == "skip"  # 2d does not divide 5
    assert not rec.counterexample and not rec.internal_failure


def test_verify_graph_skips_regular_checks_on_path():
    cfg = RunConfig(orders=3)
    path = build_graph(3, [(0, 1), (1, 2)])
    rec = verify_graph("path3", path, cfg)
    statuses = {c.name: c.status for c in rec.checks}
    assert statuses["alekseev_weighted"] == "pass"
    assert statuses["poly_degree_matches_alpha"] == "pass"
    for name in ("conjecture_counts", "order_bound", "fixed_size", "cover_count"):
        assert statuses[name] == "skip"


def test_verify_graph_conjecture_fixed_size_runs_when_divisible():
    cfg = RunConfig(orders=3)
    rec = verify_graph("gen:kdd:3", graph_from_spec("gen:kdd:3"), cfg)
    statuses = {c.name: c.status for c in rec.checks}
    assert statuses["conjecture_fixed_size"] == "pass"


def test_verify_graph_tiny_graphs_do_not_crash():
    cfg = RunConfig(orders=2)
    empty = verify_graph("empty", build_graph(0, []), cfg)
    assert not empty.counterexample and not empty.internal_failure
    single = verify_graph("k1", build_graph(1, []), cfg)
    statuses = {c.name: c.status for c in single.checks}
    assert statuses["alekseev_weighted"] == "pass"
    assert statuses["conjecture_counts"] == "skip"  # 0-regular


def test_verify_graph_cap_skips_everything():
    cfg = RunConfig(cap=4, orders=3)
    rec = verify_graph("gen:cycle:6", graph_from_spec("gen:cycle:6"), cfg)
    assert rec.stats is None
    assert all(c.status == "skip" for c in rec.checks)


def test_check_subset_selection():
    cfg = RunConfig(checks=("conjecture_counts", "alekseev_weighted"))
    rec = verify_graph("gen:cycle:5", graph_from_spec("gen:cycle:5"), cfg)
    assert cfg.checks == ("alekseev_weighted", "conjecture_counts")
    assert [c.name for c in rec.checks] == ["alekseev_weighted", "conjecture_counts"]
    assert RunConfig().checks == tuple(CHECKS)
    with pytest.raises(ValueError, match="unknown checks: no_such_check, bogus"):
        RunConfig(checks=("alpha_le_half", "no_such_check", "bogus"))


def test_run_verify_exit_codes_clean():
    cfg = RunConfig(orders=3)
    pairs = load_inputs(["gen:cycle:5", "gen:kdd:2", "gen:rr:10:3:1"])
    records, code = run_verify(pairs, cfg)
    assert code == 0
    assert len(records) == 3


def test_run_verify_parallel_matches_serial():
    # Ten graphs of mixed cost, handed to the two workers one at a time, so
    # records come from both workers and must still arrive in input order.
    specs = ["gen:rr:40:5:1", "gen:cycle:5", "gen:petersen", "gen:rr:12:3:3", "gen:kdd:3"]
    specs += ["gen:rr:40:3:2", "gen:rr:20:4:5", "gen:complete:6", "gen:rr:16:5:7", "gen:rr:28:3:4"]
    pairs = load_inputs(specs)
    cfg_serial = RunConfig(orders=4, jobs=1, cap=40)
    cfg_parallel = RunConfig(orders=4, jobs=2, cap=40)
    serial, code_s = run_verify(pairs, cfg_serial)
    parallel, code_p = run_verify(pairs, cfg_parallel)
    assert code_s == code_p == 0
    # Scheduling must not leak into the report at all.
    assert report_json(serial, cfg_serial) == report_json(parallel, cfg_parallel)


def _fake_record(graph_id, n, d, conj_fail=False, must_fail=False):
    checks = [
        CheckResult("conjecture_counts", "conjecture", "fail" if conj_fail else "pass"),
        CheckResult("order_bound", "must_hold", "fail" if must_fail else "pass"),
    ]
    from indsets.graphs import GraphStats

    return VerificationRecord(
        graph_id, "g6", GraphStats(n=n, d=d, alpha=1, edge_count=0), checks
    )


def test_record_classification_properties():
    assert _fake_record("a", 5, 2, conj_fail=True).counterexample
    assert not _fake_record("a", 5, 2).counterexample
    assert _fake_record("a", 5, 2, must_fail=True).internal_failure


def test_sort_records_counterexamples_first():
    recs = [
        _fake_record("z", 4, 2).to_dict(),
        _fake_record("a", 10, 3, conj_fail=True).to_dict(),
        _fake_record("b", 4, 2).to_dict(),
    ]
    ordered = sort_records_for_report(recs)
    assert [r["graph_id"] for r in ordered] == ["a", "b", "z"]


def test_records_to_csv_empty_and_rows():
    header_only = records_to_csv([])
    assert header_only.splitlines() == [
        "graph_id,n,d,alpha,edge_count,counterexample,graph6"
    ]
    rows = records_to_csv([_fake_record("g1", 5, 2).to_dict()])
    lines = rows.splitlines()
    assert lines[0].endswith("conjecture_counts,order_bound")
    assert lines[1].startswith("g1,5,2,1,0,false,g6")
    assert lines[1].endswith("pass,pass")


def test_records_to_csv_quotes_cells_that_need_it():
    records = [_fake_record("a,b", 5, 2).to_dict(), _fake_record('q"x', 4, 2).to_dict()]
    rows = list(csv.reader(io.StringIO(records_to_csv(records))))
    assert len(rows) == 3
    assert all(len(row) == len(rows[0]) for row in rows)
    assert [row[0] for row in rows[1:]] == ['q"x', "a,b"]


def test_cli_out_files_are_utf8(tmp_path, capsys):
    # A corpus under a non-ASCII directory gives graph ids that hold it.
    folder = tmp_path / "\uff15"
    folder.mkdir()
    corpus = folder / "corpus.g6"
    corpus.write_text("gen:petersen\nDhc\n")
    report = tmp_path / "r.json"
    assert main(["verify", str(corpus), "--orders", "2", "--out", str(report)]) == 0
    assert report.read_bytes().isascii()
    capsys.readouterr()
    assert main(["report", str(report), "--format", "csv"]) == 0
    stdout = capsys.readouterr().out
    assert "\uff15" in stdout
    out = tmp_path / "r.csv"
    assert main(["report", str(report), "--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() == stdout.encode("utf-8")


def test_report_json_deterministic():
    cfg = RunConfig(orders=4)
    pairs = load_inputs(["gen:rr:12:3:5", "gen:cycle:8"])
    records1, _ = run_verify(pairs, cfg)
    records2, _ = run_verify(pairs, cfg)
    assert report_json(records1, cfg) == report_json(records2, cfg)


def test_random_maximal_independent_set_is_maximal():
    g = graph_from_spec("gen:rr:14:3:2")
    rng = random.Random(1)
    chosen = random_maximal_independent_set(g, rng)
    assert is_independent(g, chosen)
    for v in range(g.n):
        if not (chosen >> v) & 1:
            assert g.adj[v] & chosen  # adding v would break independence


def test_poly_summary_shape():
    cfg = RunConfig()
    out = poly_summary(gen_cycle(5), cfg)
    assert out["polynomial"] == {"n": 5, "coeffs": ["1", "5", "5"]}
    assert out["alpha"] == 2 and out["count"] == "11"
    assert out["evaluations"]["1/2"] == "19/4"


def test_bounds_for_graph_regular():
    cfg = RunConfig()
    stats, reports, notices = bounds_for_graph(graph_from_spec("gen:kdd:3"), cfg)
    assert not notices
    by_name = {}
    for rep in reports:
        by_name.setdefault(rep.name, rep)
    conj = by_name["conjecture_counts"]
    assert conj.holds_exact and conj.constants.get("equality")
    assert by_name["kahn"].holds_exact
    assert by_name["alekseev"].holds_exact
    assert by_name["order_bound"].holds_exact
    assert by_name["cover_count"].holds_exact
    assert all(
        rep.margin_log2 >= -1e-9 for rep in reports if rep.margin_log2 is not None
    )


def test_bounds_for_graph_irregular_notice():
    cfg = RunConfig()
    path = build_graph(3, [(0, 1), (1, 2)])
    stats, reports, notices = bounds_for_graph(path, cfg)
    assert notices
    names = {rep.name for rep in reports}
    assert "alekseev_weighted" in names
    assert "kahn" not in names


def test_cover_summary_verified():
    out = cover_summary(gen_cycle(5), 0b101, RunConfig(phi=1))
    assert out["verified"] and out["reason"] == "ok"
    assert out["certificate"]["seed"] == [0, 2]
    assert all(b["holds_exact"] for b in out["cover_count_bounds"])


def test_cover_summary_rejects_dependent_set():
    with pytest.raises(GraphError) as err:
        cover_summary(gen_cycle(5), 0b011, RunConfig(phi=1))
    assert "not independent" in str(err.value)


@pytest.mark.parametrize(
    "spec", ["?", "@", "gen:petersen", "gen:kdd:3", "gen:union:kdd:3+cycle:5", "gen:rr:20:4:7"]
)
def test_bounds_and_cover_read_alpha_off_the_polynomial(spec, monkeypatch, capsys):
    # Only verify runs the exact MIS search, for poly_degree_matches_alpha;
    # bounds and cover print the same stats from the polynomial's degree.
    ((_, g),) = load_inputs([spec])
    expected = graph_stats(g)._asdict()
    calls = []

    def spy(g):
        calls.append(g)
        return graph_stats(g)

    monkeypatch.setattr(harness, "graph_stats", spy)
    assert main(["bounds", spec]) == 0
    assert json.loads(capsys.readouterr().out)["stats"] == expected
    code = main(["cover", spec, "--set", "0"])
    out = capsys.readouterr().out
    if expected["d"] is not None and expected["d"] >= 2:
        assert code == 0
        assert json.loads(out)["stats"] == {key: expected[key] for key in ("n", "d", "alpha")}
    else:
        assert code == 1
    assert calls == []
    main(["verify", spec])
    assert calls == [g]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_poly(capsys):
    assert main(["poly", "gen:kdd:3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == "15"
    assert doc["polynomial"]["coeffs"][0] == "1"


def test_cli_poly_petersen(capsys):
    assert main(["poly", "gen:petersen"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == "76"


def test_cli_bounds_csv(capsys):
    assert main(["bounds", "gen:cycle:5", "--format", "csv", "--lambda", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "name,log2_value,exact_value,holds_exact,margin_log2"
    assert any(line.startswith("conjecture_counts") for line in out.splitlines())


def test_cli_bounds_irregular_notice(capsys):
    g6 = write_graph6(build_graph(3, [(0, 1), (1, 2)]))
    assert main(["bounds", g6]) == 0
    captured = capsys.readouterr()
    assert "regular-only bounds skipped" in captured.err


ROW_VERDICT_SPECS = [
    "gen:petersen",
    "gen:kdd:3",
    "gen:union:kdd:3+kdd:3",
    "gen:cycle:5",
    "DhC",
    "gen:rr:20:3:7",
    "gen:rr:20:4:8",
] + [f"gen:rr:20:{d}:{seed}" for d in (3, 4, 5) for seed in range(5)]


@pytest.mark.parametrize("spec", ROW_VERDICT_SPECS)
def test_every_bounds_row_has_a_true_verdict(spec, capsys):
    # The golden graphs plus five seeded random graphs per degree 3, 4, 5.
    lambdas = ["--lambda", "1/2", "--lambda", "1", "--lambda", "2", "--lambda", "3/7"]
    assert main(["bounds", spec, *lambdas]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert main(["bounds", spec, "--format", "csv", *lambdas]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == [rep["name"] for rep in reports]
    assert reports
    for rep, row in zip(reports, rows):
        assert rep["holds_exact"] is True and row[3] == "true", rep["name"]


def _log2(x) -> float:
    return bd.log2_fraction(Fraction(x))


@pytest.mark.parametrize("spec", ROW_VERDICT_SPECS)
def test_every_cleared_form_is_its_bound_raised_to_the_power(spec):
    # value <= bound iff value^power * scale <= cleared, so power * log2(bound)
    # must equal log2(cleared) - log2(scale) for every row.
    lambdas = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3, 7))
    ((_, g),) = load_inputs([spec])
    _, reports, _ = bounds_for_graph(g, RunConfig(lambdas=lambdas))
    assert reports
    for rep in reports:
        bound_log2 = rep.constants.get("bound_log2", rep.log2_value)
        cleared_log2 = _log2(rep.cleared) - _log2(rep.scale)
        assert rep.power * bound_log2 == pytest.approx(cleared_log2, rel=1e-9), rep.to_dict()


@pytest.mark.parametrize("flag", ["--const-C", "--const-c", "--const-Clambda", "--const-calpha"])
def test_const_flags_are_gone(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "gen:cycle:5", flag, "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["bounds", "--help"])
    assert "--const" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["poly", "gen:petersen", "--cap", "4"], "--cap"),
        (["poly", "gen:petersen", "--format", "csv"], "--format"),
        (["bounds", "gen:petersen", "--checks", "x"], "--checks"),
        (["bounds", "gen:petersen", "--seed", "3"], "--seed"),
        (["cover", "gen:petersen", "--set", "0", "--orders", "2"], "--orders"),
        (["cover", "gen:petersen", "--set", "0", "--format", "csv"], "--format"),
        (["report", "r.json", "--lambda", "1"], "--lambda"),
        (["report", "r.json", "--phi", "2"], "--phi"),
        (["verify", "gen:petersen", "--format", "csv"], "--format"),
    ],
)
def test_subcommands_reject_flags_they_do_not_read(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_subcommand_help_lists_only_their_flags():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    listed = {
        name: {opt for a in parser._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, parser in sub.items()
    }
    assert listed == {
        "poly": {"--lambda", "--out"},
        "bounds": {"--lambda", "--phi", "--format", "--out"},
        "cover": {"--set", "--certificate", "--lambda", "--phi", "--out"},
        "report": {"--format", "--out"},
        "verify": {
            "--lambda", "--phi", "--seed", "--cap", "--orders", "--checks", "--jobs", "--out"
        },
    }


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "Expecting value: line 1 column 1 (char 0)"),
        ("[1, 2]", "top level is not a JSON object"),
        ('{"records": 5}', "records is not a list of objects"),
        ('{"records": [{}, 3]}', "records is not a list of objects"),
        ('{"records": [{"stats": 5}]}', "record 0: stats is not an object"),
        ('{"records": [{}, {"stats": {"n": "7"}}]}', "record 1: stats.n is not an integer"),
        ('{"records": [{"graph_id": 3}]}', "record 0: graph_id is not a string"),
        ('{"records": [{"checks": 5}]}', "record 0: checks is not a list of named checks with a status"),
        (
            '{"records": [{"checks": [{"name": "kahn"}]}]}',
            "record 0: checks is not a list of named checks with a status",
        ),
    ],
)
def test_cli_report_rejects_malformed_file_with_located_error(text, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for fmt in ("json", "csv"):
        assert main(["report", str(path), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "argv", [["report"], ["cover", "gen:petersen", "--certificate"]], ids=["report", "cover"]
)
def test_cli_rejects_deeply_nested_json_with_located_error(argv, tmp_path, capsys):
    # Deep enough to exhaust json's recursion limit on every supported Python,
    # whether the C scanner shares the interpreter's limit (3.11) or not (3.12+).
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_report_rejects_json_too_deep_to_write(fmt, tmp_path, capsys, monkeypatch):
    # Where json reads deeper than Python code recurses (3.12+), a file can
    # load and still be too deep for the writer; the loader is stubbed here so
    # the case runs on every version.
    deep = []
    for _ in range(100_000):
        deep = [deep]
    doc = {"records": [{"graph_id": "g", "graph6": deep}], "extra": deep}
    monkeypatch.setattr(json, "load", lambda fh: doc)
    path = tmp_path / "deep.json"
    path.write_text("{}")
    assert main(["report", str(path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize("value", ["1/0", "abc", "\uff15", "1_0", "1/\u0662"])
def test_cli_rejects_a_malformed_activity_naming_lambda(value, capsys):
    assert main(["poly", "gen:cycle:5", "--lambda", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed --lambda value {value!r}\n"


@pytest.mark.parametrize("value", ["-1", "0", "0/5"])
def test_cli_rejects_a_nonpositive_activity_naming_lambda(value, capsys):
    assert main(["poly", "gen:cycle:5", "--lambda", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: nonpositive --lambda value {value!r}\n"


@pytest.mark.parametrize("command", ["poly", "bounds", "verify", "cover"])
def test_cli_takes_a_negative_fraction_after_lambda_as_its_value(command, capsys):
    # argparse reads "-3/7" as an option, not as a negative number, so the
    # value must reach the activity parser some other way to be rejected.
    for flag in ("--lambda", "--lam"):
        assert main([command, "gen:cycle:5", flag, "-3/7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: nonpositive --lambda value '-3/7'\n"


def test_cli_lambda_still_stops_at_a_flag_and_at_double_dash(capsys):
    for flag in ("--out", "-h"):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "gen:cycle:5", "--lambda", flag])
        assert exc.value.code == 2
        assert "argument --lambda: expected one argument" in capsys.readouterr().err
    # After "--" every token is an input, read as written.
    assert main(["verify", "--", "--lambda", "-3/7"]) == 1
    assert capsys.readouterr().err.startswith("error: --lambda: no such file")


CYCLE_TOO_SHORT = "cycle needs at least 3 vertices"


@pytest.mark.parametrize(
    "argv, named, reason",
    [
        (["gen:cycle:5", "gen:cycle:1", "gen:petersen"], "gen:cycle:1", CYCLE_TOO_SHORT),
        (["gen:rr:0:0:0"], "gen:rr:0:0:0", "need 0 <= d < n"),
        (["gen:union:kdd:3+cycle:2"], "gen:union:kdd:3+cycle:2: gen:cycle:2", CYCLE_TOO_SHORT),
    ],
)
def test_cli_names_the_descriptor_a_generator_rejects(argv, named, reason, tmp_path, capsys):
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}: {reason}\n"
    # On a corpus line the file and line come first, then the descriptor.
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join(argv) + "\n")
    assert main(["verify", str(corpus)]) == 1
    lineno = argv.index(named.split(": ")[0]) + 1
    assert capsys.readouterr().err == f"error: {corpus}:{lineno}: {named}: {reason}\n"


@pytest.mark.parametrize("phi", ["0", "9"])
def test_cli_bounds_phi_out_of_range_notice(phi, tmp_path, capsys):
    argv = ["bounds", "gen:petersen", "--lambda", "1"]
    assert main(argv) == 0
    full = json.loads(capsys.readouterr().out)["reports"]
    assert main([*argv, "--phi", phi]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"note: phi {phi} outside (0, d): cover_count rows skipped\n"
    assert json.loads(captured.out)["reports"] == [r for r in full if r["name"] != "cover_count"]
    # verify keeps its skip records for the same value.
    out = tmp_path / "report.json"
    assert main(["verify", "gen:petersen", "--phi", phi, "--orders", "1", "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["records"][0]["checks"]}
    for name in ("cover_certificate", "cover_count"):
        assert checks[name]["status"] == "skip"
        assert checks[name]["witness"] == {"reason": "phi outside (0, d)"}


@pytest.mark.parametrize("phi", [0, 3, 5])
def test_cli_cover_phi_out_of_range_is_located(phi, capsys):
    # cover cannot skip its rows as bounds does: it names the flag, the value and d.
    assert main(["cover", "gen:petersen", "--set", "0", "--phi", str(phi)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --phi {phi}: need 0 < phi < d = 3\n"
    with pytest.raises(ConfigError) as info:
        cover_summary(gen_petersen(), 1, RunConfig(phi=phi))
    assert info.value.field == "phi"


def test_cli_verify_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "gen:cycle:5", "gen:kdd:2", "--orders", "3", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 2
    assert "counterexamples=0" in capsys.readouterr().out


def test_cli_verify_rejects_bad_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("gen:cycle:notanumber\n")
    assert main(["verify", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_cover_and_report(tmp_path, capsys):
    assert main(["cover", "gen:cycle:5", "--set", "0,2", "--phi", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] and doc["certificate"]["envelope"] == [0, 2]

    assert main(["cover", "gen:cycle:5", "--set", "0,1"]) == 1
    assert "not independent" in capsys.readouterr().err

    report = tmp_path / "rep.json"
    assert main(["verify", "gen:cycle:5", "--orders", "2", "--out", str(report)]) == 0
    capsys.readouterr()
    csv_out = tmp_path / "rep.csv"
    assert main(["report", str(report), "--format", "csv", "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("graph_id,n,d,alpha,edge_count")
    assert len(lines) == 2


@pytest.mark.parametrize(
    "spec, vertices, bad, n",
    [
        ("gen:cycle:5", "0,7", 7, 5),
        ("gen:cycle:5", "-1", -1, 5),
        ("@", "0,1", 1, 1),  # graph6 for the one-vertex graph
        ("?", "0", 0, 0),  # graph6 for the empty graph
    ],
)
def test_cli_cover_rejects_set_outside_graph(capsys, spec, vertices, bad, n):
    assert main(["cover", spec, "--set", vertices]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --set vertex {bad} out of range 0..n-1 for n={n}\n"


@pytest.mark.parametrize("vertices", ["1_0", "\uff10", "0,+2", " 4"])
def test_cli_cover_set_takes_ascii_digits_only(capsys, vertices):
    # int() would read these as vertices 10, 0, 2 and 4 of C_12.
    assert main(["cover", "gen:cycle:12", "--set", vertices]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed --set value {vertices!r}\n"


@pytest.fixture
def parser_builds(monkeypatch):
    """Start from an unbuilt parser and count the calls to build_parser."""
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    return builds


def test_cli_builds_parser_once(parser_builds, capsys):
    for _ in range(5):
        assert main(["poly", "gen:cycle:5"]) == 0
        assert main(["bounds", "gen:kdd:2", "--format", "csv"]) == 0
    assert len(parser_builds) == 1
    capsys.readouterr()


def test_cli_import_builds_no_parser():
    code = "import indsets, indsets.cli as cli; raise SystemExit(cli._parser is not None)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_reused_parser_keeps_no_state(parser_builds, tmp_path, capsys):
    assert main(["poly", "gen:cycle:5"]) == 0
    default = capsys.readouterr().out
    assert main(["poly", "gen:cycle:5", "--lambda", "1/3"]) == 0
    assert json.loads(capsys.readouterr().out)["evaluations"] == {"1/3": "29/9"}
    assert main(["poly", "gen:cycle:5"]) == 0
    assert capsys.readouterr().out == default

    assert main(["bounds", "gen:cycle:5", "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("name,log2_value,")
    assert main(["bounds", "gen:cycle:5"]) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["n"] == 5

    cert_path = tmp_path / "cert.json"
    assert main(["cover", "gen:cycle:5", "--set", "0,2", "--out", str(cert_path)]) == 0
    cert_path.write_text(json.dumps(json.loads(cert_path.read_text())["certificate"]))
    assert main(["cover", "gen:cycle:5", "--certificate", str(cert_path)]) == 0
    assert json.loads(capsys.readouterr().out)["verified"]
    assert main(["cover", "gen:cycle:5", "--set", "0,2"]) == 0
    assert "certificate" in json.loads(capsys.readouterr().out)
    assert len(parser_builds) == 1


def test_cli_reused_parser_bad_arguments_exit_2(parser_builds, capsys):
    help_text = cli.build_parser().format_help()
    for argv in (
        ["bounds", "gen:cycle:5", "--format", "xml"],
        ["nosuch"],
        [],
        ["poly", "gen:cycle:5", "--orders", "many"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: indsets")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == help_text
    assert main(["poly", "gen:cycle:5"]) == 0
    assert len(parser_builds) == 2  # the help text above plus main's one parser


def _cycle_partitions(n, minimum=3):
    for part in range(minimum, n + 1):
        rest = n - part
        if rest == 0:
            yield (part,)
        elif rest >= part:
            for tail in _cycle_partitions(rest, part):
                yield (part,) + tail


def test_cli_verify_all_two_regular_corpora(tmp_path, capsys):
    # Every 2-regular graph is a union of cycles; sweep all of them up to 12
    # vertices through the CLI and expect a clean exit.
    specs = []
    for n in range(3, 13):
        for parts in _cycle_partitions(n):
            specs.append("gen:union:" + "+".join(f"cycle:{p}" for p in parts))
    corpus = tmp_path / "two_regular.txt"
    corpus.write_text("\n".join(specs) + "\n")
    assert main(["verify", str(corpus), "--orders", "2"]) == 0
    out = capsys.readouterr().out
    assert "counterexamples=0" in out
    assert f"graphs={len(specs)}" in out


def test_cli_cover_certificate_file_round_trip(tmp_path, capsys):
    assert main(["cover", "gen:petersen", "--set", "0,2", "--phi", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc["certificate"]))
    assert main(["cover", "gen:petersen", "--certificate", str(cert_path)]) == 0
    assert json.loads(capsys.readouterr().out)["verified"]


@pytest.mark.parametrize(
    "extra, flag",
    [(["--set", "1,3"], "--set"), (["--phi", "1"], "--phi"), (["--lambda", "5"], "--lambda")],
)
def test_cli_cover_certificate_rejects_flags_it_does_not_read(extra, flag, tmp_path, capsys):
    assert main(["cover", "gen:petersen", "--set", "0,2", "--phi", "2"]) == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(json.loads(capsys.readouterr().out)["certificate"]))
    with pytest.raises(SystemExit) as exc:
        main(["cover", "gen:petersen", "--certificate", str(cert_path), *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: not allowed with argument --certificate" in captured.err


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "Expecting value: line 1 column 1 (char 0)"),
        ("[1]", "certificate is not a JSON object"),
        ("{}", "certificate seed is not a list of vertices in 0..9"),
        (
            '{"seed": [0], "envelope": [0, 10], "phi": 2, "independent_set": [0], "trace": [0]}',
            "certificate envelope is not a list of vertices in 0..9",
        ),
        (
            '{"seed": [0], "envelope": [0], "phi": 2, "independent_set": [0], "trace": ["0"]}',
            "certificate trace is not a list of vertices in 0..9",
        ),
        (
            '{"seed": [0], "envelope": [0], "phi": "2", "independent_set": [0], "trace": [0]}',
            "certificate phi is not an integer",
        ),
        (
            "[\u00e9]",
            "'ascii' codec can't decode byte 0xc3 in position 1: ordinal not in range(128)",
        ),
    ],
)
def test_cli_cover_certificate_rejects_malformed_file_with_located_error(
    text, message, tmp_path, capsys
):
    path = tmp_path / "cert.json"
    path.write_text(text, encoding="utf-8")
    assert main(["cover", "gen:petersen", "--certificate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_order_bound_zero_orders_skips(capsys, tmp_path):
    rec = verify_graph("gen:cycle:5", gen_cycle(5), RunConfig(orders=0))
    check = next(c for c in rec.checks if c.name == "order_bound")
    assert check.status == "skip" and check.holds_exact is None
    assert check.witness == {"reason": "no orders requested"}

    out = tmp_path / "report.json"
    assert main(["verify", "gen:cycle:5", "--orders", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    (check,) = [c for c in doc["records"][0]["checks"] if c["name"] == "order_bound"]
    assert check["status"] == "skip" and "holds_exact" not in check


def test_negative_orders_rejected(capsys):
    with pytest.raises(ValueError):
        RunConfig(orders=-3)
    assert main(["verify", "gen:cycle:5", "--orders", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --orders -3: orders must be nonnegative\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--checks", ","], "checks must name at least one check, got ()"),
        (["--checks", ""], "checks must name at least one check, got ()"),
        (["--cap", "-1"], "cap must be nonnegative, got -1"),
        (["--jobs", "-3"], "jobs must be at least 1, got -3"),
        (["--jobs", "0"], "jobs must be at least 1, got 0"),
        (["--cap", "65"], "cap exceeds vertex capacity 64"),
    ],
)
def test_verify_rejects_vacuous_or_ignored_settings(flags, message, capsys):
    # Under any of these a run would certify nothing or ignore the value, so
    # it must not exit 0; the error names the flag and the value given.
    assert main(["verify", "gen:cycle:5", *flags]) == 1
    captured = capsys.readouterr()
    flag, value = flags
    shown = repr(value) if flag == "--checks" else value  # the other flags are ints
    assert captured.err == f"error: {flag} {shown}: {message}\n"
    assert captured.out == ""


def test_verify_rejects_unknown_checks_before_any_graph(tmp_path, capsys):
    # An empty corpus verifies no graph, so the names are checked up front.
    corpus = tmp_path / "empty.g6"
    corpus.write_text("")
    for inputs in ([str(corpus)], ["gen:cycle:5"]):
        assert main(["verify", *inputs, "--checks", "alpha_le_half,bogus"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --checks 'alpha_le_half,bogus': unknown checks: bogus\n"
        assert captured.out == ""


def test_run_config_rejects_an_empty_activity_list():
    # With no activity, the five per-activity checks would pass having
    # compared nothing.
    with pytest.raises(ValueError, match="lambdas must name at least one activity"):
        RunConfig(lambdas=())


def test_bounds_for_graph_count_equality_is_exact():
    def conjecture_report(spec):
        _, reports, _ = bounds_for_graph(graph_from_spec(spec), RunConfig())
        return next(rep for rep in reports if rep.name == "conjecture_counts")

    union = conjecture_report("gen:union:kdd:3+kdd:3")
    assert union.holds_exact and union.constants.get("equality") is True
    petersen = conjecture_report("gen:petersen")
    assert petersen.holds_exact and "equality" not in petersen.constants


def test_fixed_size_check_is_exact_at_the_threshold():
    # n=10, d=3, t=2: the bound is 2^((n/2)(H(2/5) + 2/3)) = 291.648..., so
    # 291 is the largest count that holds (291^6 4^12 6^18 <= 10^30 2^20 < 292^6 4^12 6^18).
    g = gen_petersen()
    stats = graph_stats(g)
    at = IndependencePolynomial(10, (1, 10, 291, 30, 5))
    above = IndependencePolynomial(10, (1, 10, 292, 30, 5))
    res = CHECKS["fixed_size"](GraphFacts("p", g, RunConfig(), stats, at))
    assert res.status == "pass" and res.holds_exact is True
    res = CHECKS["fixed_size"](GraphFacts("p", g, RunConfig(), stats, above))
    assert res.status == "fail" and res.holds_exact is False
    assert res.witness["t"] == 2 and res.witness["count"] == "292"


def test_conjecture_fixed_size_targets_the_kdd_union():
    # Two copies of K_{3,3}: the target is (2(1+x)^3 - 1)^2, the square of
    # (1, 6, 6, 2) by convolution. Meeting it passes; one set more of any
    # size t >= 2 fails at t with the target coefficient as the extremal one.
    g = graph_from_spec("gen:union:kdd:3+kdd:3")
    kdd = (1, 6, 6, 2)
    target = [sum(kdd[i] * kdd[t - i] for i in range(4) if 0 <= t - i < 4) for t in range(7)]
    assert target == [1, 12, 48, 76, 60, 24, 4] and sum(target) == 15**2
    stats = graph_stats(g)
    check = CHECKS["conjecture_fixed_size"]
    assert check(GraphFacts("u", g, RunConfig(), stats, IndependencePolynomial(12, tuple(target)))).status == "pass"
    for t in range(2, 7):
        above = IndependencePolynomial(12, tuple(c + (i == t) for i, c in enumerate(target)))
        res = check(GraphFacts("u", g, RunConfig(), stats, above))
        assert res.status == "fail"
        assert res.witness == {"t": t, "count": str(target[t] + 1), "extremal": str(target[t])}


def test_kahn_rows_are_decided_at_the_threshold(monkeypatch):
    # n=10, d=3: Kahn's bound is 2^(50/6) = 322.54..., so a Petersen-shaped
    # polynomial with count 322 meets both Kahn rows at activity 1 and 323
    # fails them (322^6 <= 2^50 < 323^6).
    g = gen_petersen()
    for count, holds in ((322, True), (323, False)):
        poly = IndependencePolynomial(10, (1, 10, 30, 30, count - 71))
        monkeypatch.setattr(harness, "independence_polynomial", lambda _: poly)
        _, reports, _ = bounds_for_graph(g, RunConfig(lambdas=(Fraction(1),)))
        verdicts = {rep.name: rep.holds_exact for rep in reports if "kahn" in rep.name}
        assert verdicts == {"kahn": holds, "weighted_kahn": holds}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
def test_count_rows_are_their_weighted_rows_at_activity_1(name):
    # The count rows come from the weighted evaluators at activity 1, so on
    # every golden graph each agrees with its weighted row at lam = 1 in
    # value, cleared form and verdict. The irregular path has only the
    # Alekseev pair.
    g = load_inputs([GOLDEN_GRAPHS[name]])[0][1]
    _, reports, _ = bounds_for_graph(g, RunConfig(lambdas=(Fraction(1),)))
    rows = {rep.name: rep for rep in reports}
    pairs = [("alekseev", "alekseev_weighted")]
    if g.regular_degree():
        pairs.append(("conjecture_counts", "conjecture_weighted"))
    fields = ("log2_value", "exact_value", "power", "cleared", "scale", "holds_exact", "margin_log2")
    for count, weighted in pairs:
        for field in fields:
            assert getattr(rows[count], field) == getattr(rows[weighted], field), (count, field)
    if name in ("kdd3", "kdd3x2"):
        assert rows["conjecture_counts"].constants["equality"] is True


TIGHT_ON_KDD = ("conjecture_counts", "conjecture_weighted", "order_bound")


@pytest.mark.parametrize(
    "spec,tight_checks",
    [("gen:kdd:3", TIGHT_ON_KDD), ("gen:union:kdd:3+kdd:3", TIGHT_ON_KDD[:2])],
)
def test_margins_at_equality_are_exactly_zero(spec, tight_checks, tmp_path, capsys):
    # K_{3,3} meets the count and weighted bounds with equality, and so does
    # every order that lists one side of each copy first: the natural order
    # that bounds uses, and some of verify's random orders on one copy but
    # none on two. The floats of both sides round apart by an ulp or two,
    # but the reported margin is 0.0.
    out = tmp_path / "r.json"
    assert main(["verify", spec, "--out", str(out)]) == 0
    (record,) = json.loads(out.read_text())["records"]
    margins = {c["name"]: c.get("margin_log2") for c in record["checks"]}
    assert {name: margins[name] for name in tight_checks} == dict.fromkeys(tight_checks, 0.0)
    assert all(m is None or m >= 0 for m in margins.values())
    _, reports, _ = bounds_for_graph(graph_from_spec(spec), RunConfig())
    tight = [rep for rep in reports if rep.tight]
    assert {rep.name for rep in tight} == set(TIGHT_ON_KDD)
    assert all(repr(rep.margin_log2) == "0.0" for rep in tight)
    assert all(rep.margin_log2 > 0 for rep in reports if not rep.tight)


def test_order_bound_check_takes_its_verdict_from_judge(monkeypatch):
    # The check has no verdict of its own: a judge that rejects every report
    # makes it fail, at the first (order, activity) pair.
    def reject(self, value, value_log2):
        self.holds_exact, self.tight, self.margin_log2 = False, False, 0.0
        return self

    monkeypatch.setattr(bd.BoundReport, "judge", reject)
    g = gen_petersen()
    facts = GraphFacts("p", g, RunConfig(), graph_stats(g), harness.independence_polynomial(g))
    result = CHECKS["order_bound"](facts)
    assert result.status == "fail" and result.witness["activity"] == "1/2"


def test_cli_bounds_prints_exact_values_past_the_int_string_limit(capsys):
    # The order_bound rows' exact products of K_40 at lam = 10^7 have about
    # 5,500 digits, past Python's default 4,300-digit limit on int to str.
    assert main(["bounds", "gen:complete:40", "--lambda", "10000000"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert max(len(rep.get("exact_value", "")) for rep in reports) > 4300
    assert reports and all(rep["holds_exact"] is True for rep in reports)


def _launch(*argv) -> list:
    """Run one command in a fresh interpreter; return [exit code, the heavy
    standard-library modules imported, the package modules `bounds` and `cover`
    that ran]. -S keeps out the host's site .pth files, which may import
    typing. A module loaded through importlib's LazyLoader becomes a plain
    ModuleType when it first runs."""
    code = "\n".join([
        "import json, sys, types",
        "from indsets import cli",
        "code = cli.main(sys.argv[1:])",
        "heavy = [m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules]",
        "names = ('indsets.bounds', 'indsets.cover')",
        "ran = [m for m in names if type(sys.modules.get(m)) is types.ModuleType]",
        "print(json.dumps([code, heavy, ran]))",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_poly_launch_skips_dataclasses_typing_and_the_bound_modules():
    assert _launch("poly", "gen:cycle:5") == [0, [], []]


def test_verify_launch_runs_the_bound_modules():
    assert _launch("verify", "gen:petersen") == [0, [], ["indsets.bounds", "indsets.cover"]]


def test_library_import_lifts_the_int_string_limit():
    # A fresh interpreter, since this process may have the limit lifted already.
    code = "\n".join([
        "import sys",
        "from fractions import Fraction",
        "from indsets.graphs import gen_petersen",
        "from indsets.harness import RunConfig, verify_graph",
        "assert getattr(sys, 'get_int_max_str_digits', lambda: 0)() == 0",
        "cfg = RunConfig(lambdas=(Fraction(2**15000),), orders=2)",
        "assert not verify_graph('p', gen_petersen(), cfg).internal_failure",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# ---------------------------------------------------------------------------
# One path from formula to verdict
# ---------------------------------------------------------------------------

ROW_CHECKS = (
    "alekseev_weighted",
    "conjecture_counts",
    "conjecture_weighted",
    "independent_first",
    "fixed_size",
    "cover_count",
)


@pytest.mark.parametrize("n,d", [(10, 3), (12, 3), (14, 4), (16, 5), (20, 3), (20, 4)])
def test_verify_margins_are_the_minimum_bounds_margins(n, d):
    # verify folds the same rows that bounds lists, so each check's margin is
    # the smallest margin of the same-named reports, bit for bit.
    cfg = RunConfig(lambdas=(Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3, 7)), orders=2)
    for seed in range(3):
        g = gen_random_regular(n, d, seed)
        margins = {c.name: c.margin_log2 for c in verify_graph("g", g, cfg).checks}
        _, reports, _ = bounds_for_graph(g, cfg)
        for name in ROW_CHECKS:
            rows = [rep.margin_log2 for rep in reports if rep.name == name]
            assert rows, name
            assert repr(margins[name]) == repr(min(rows)), (n, d, seed, name)


def test_verify_graph_evaluates_each_activity_once(monkeypatch):
    calls = []
    evaluate = IndependencePolynomial.evaluate

    def counting(self, activity):
        calls.append(activity)
        return evaluate(self, activity)

    monkeypatch.setattr(IndependencePolynomial, "evaluate", counting)
    lambdas_sets = [(Fraction(1),), (Fraction(1, 2), Fraction(1), Fraction(2)), (Fraction(2),) * 2]
    for lambdas in lambdas_sets:
        cfg = RunConfig(lambdas=lambdas, orders=4)
        for spec in ("gen:petersen", "gen:kdd:3", "gen:cycle:5", "gen:rr:16:4:3"):
            calls.clear()
            verify_graph(spec, graph_from_spec(spec), cfg)
            assert calls == list(lambdas), spec


def test_verify_graph_calls_the_checks_entry(monkeypatch):
    seen = []

    def stand_in(facts):
        seen.append(facts.graph_id)
        return CheckResult("order_bound", "must_hold", "skip", witness={"reason": "stand-in"})

    monkeypatch.setitem(CHECKS, "order_bound", stand_in)
    rec = verify_graph("gen:petersen", gen_petersen(), RunConfig())
    assert seen == ["gen:petersen"]
    assert [c.name for c in rec.checks] == list(CHECKS)
    assert rec.checks[list(CHECKS).index("order_bound")].witness == {"reason": "stand-in"}


def test_row_checks_fail_at_the_first_false_row_with_their_witness():
    # An inflated top coefficient breaks every bound row at the first activity
    # (or, for fixed_size, at the top coefficient).
    g = gen_petersen()
    poly = IndependencePolynomial(10, (1, 10, 30, 30, 10**6))
    facts = GraphFacts("p", g, RunConfig(), graph_stats(g), poly)
    want = {
        "alekseev_weighted": {"activity": "1/2", "value": "250069/4", "bound": "6561/256"},
        "conjecture_counts": {"count": "1000071", "n": 10, "d": 3},
        "conjecture_weighted": {"activity": "1/2", "value": "250069/4"},
        "independent_first": {"activity": "1/2", "value": "250069/4"},
        "cover_count": {"activity": "1/2", "value": "250069/4", "phi": 2},
    }
    for name, witness in want.items():
        res = CHECKS[name](facts)
        assert (res.status, res.holds_exact, res.witness) == ("fail", False, witness), name
    res = CHECKS["fixed_size"](facts)
    assert (res.status, res.holds_exact) == ("fail", False)
    assert (res.witness["t"], res.witness["count"]) == (4, "1000000")


# ---------------------------------------------------------------------------
# The indented JSON writer
# ---------------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")]),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F) | st.sampled_from('"\\/é \U0001f600')),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_indented_json_matches_json_dumps(obj):
    assert harness.indented_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_indented_json_edge_values():
    for obj in ({}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], {"\x00ÿ": ["\n", True, 1]}):
        assert harness.indented_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_indented_json_raises_type_error_on_other_types():
    # Every report holds str keys and JSON scalars, lists and dicts only, so
    # the writer has no fallback: anything else is a TypeError, including
    # the non-str keys that json.dumps would coerce.
    for obj in (
        {"a": [1, {2: "two"}]},
        {1.5: None},
        {True: 1},
        {"a": 1, 2: 3},
        {"x": [Fraction(1, 3)]},
        {"s": {1, 2}},
        [b"bytes"],
    ):
        with pytest.raises(TypeError):
            harness.indented_json(obj)


# ---------------------------------------------------------------------------
# Exit 3: a run in which no check passed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "inputs, flags",
    [
        (["gen:rr:20:3:1"], ["--cap", "10"]),
        (["gen:rr:20:3:1", "gen:petersen"], ["--checks", "conjecture_fixed_size"]),
        ([], []),
    ],
    ids=["cap", "skipping-selection", "empty-corpus"],
)
def test_cli_verify_exit_3_when_no_check_passed(inputs, flags, tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# nothing but a comment\n")
    out = tmp_path / "report.json"
    assert main(["verify", *(inputs or [str(corpus)]), *flags, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    graphs = len(inputs)
    assert captured.err.splitlines()[0] == (
        f"error: no check passed; every check was skipped (graphs={graphs})"
    )
    assert captured.out.splitlines()[-1].startswith(f"graphs={graphs} checks_passed=0 ")
    records = json.loads(out.read_text())["records"]
    assert len(records) == graphs
    assert all(c["status"] == "skip" for rec in records for c in rec["checks"])


def test_run_verify_failures_take_precedence_over_exit_3(monkeypatch):
    pairs = load_inputs(["gen:petersen"])
    cfg = RunConfig(checks=("alpha_le_half", "conjecture_counts"))
    assert run_verify(pairs, cfg)[1] == 0
    for name, code in (("alpha_le_half", 1), ("conjecture_counts", 2)):
        check = CHECKS[name]
        monkeypatch.setitem(CHECKS, name, lambda f, c=check: c.result(False))
        assert run_verify(pairs, RunConfig(checks=(name,)))[1] == code


def test_cover_certificate_failure_witness_holds_the_certificate(monkeypatch):
    built = []
    build = harness.cv.build_cover

    def keep(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(harness.cv, "build_cover", keep)
    monkeypatch.setattr(harness.cv, "verify_cover", lambda g, cert: (False, "rejected"))
    rec = verify_graph("p", gen_petersen(), RunConfig(checks=("cover_certificate",)))
    (check,) = rec.checks
    assert check.status == "fail"
    assert check.witness == {
        "phi": built[0].phi,
        "reason": "rejected",
        "certificate": built[0].to_dict(),
    }
