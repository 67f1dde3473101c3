"""CLI surface of the whole-program rules: formats, exit codes, tree gate."""

import json

from repro.analysis.cli import main as lint_main

from ..conftest import FIXTURES, SRC_ROOT

REGRESSION = str(FIXTURES / "proj_regression")
CLEAN = str(FIXTURES / "proj_clean")


def test_regression_fixture_fails_the_gate(capsys):
    assert lint_main([REGRESSION]) == 1
    out = capsys.readouterr().out
    assert "G601" in out and "_REGISTRY" in out


def test_clean_fixture_passes(capsys):
    assert lint_main([CLEAN]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_whole_tree_is_project_clean(capsys):
    # The repo's own gate through the CLI: src/repro has no unsuppressed
    # finding of any family, R5xx/G6xx/P7xx included.
    assert lint_main([str(SRC_ROOT), "-q"]) == 0


def test_json_format_document(capsys):
    assert lint_main([REGRESSION, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1
    assert doc["project"]["modules"] == 3
    assert [f["rule"] for f in doc["findings"]] == ["G601"]
    assert doc["findings"][0]["severity"] == "error"
    assert doc["findings"][0]["path"].startswith(
        "tests/analysis/fixtures/proj_regression/"
    )


def test_sarif_format_document(capsys):
    assert lint_main([REGRESSION, "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    (result,) = run["results"]
    assert result["ruleId"] == "G601"
    assert result["level"] == "error"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"R501", "G601", "P701", "D101"} <= rule_ids


def test_output_writes_file_and_summarizes(tmp_path, capsys):
    out_file = tmp_path / "report.sarif"
    code = lint_main(
        [REGRESSION, "--format", "sarif", "--output",
         str(out_file)]
    )
    assert code == 1
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["runs"][0]["results"]
    assert "wrote sarif report" in capsys.readouterr().out


def test_machine_formats_work_per_file_too(capsys):
    bad = str(FIXTURES / "bad_determinism.py")
    assert lint_main([bad, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["findings"]
    # Each finding carries its rule's declared severity: the D1xx rules
    # warn, the RNG rules are errors.
    severities = {f["rule"]: f["severity"] for f in doc["findings"]}
    assert severities["D101"] == "warning"
    assert severities["R501"] == severities["R502"] == "error"
    # One pass, one document: the project section is always there.
    assert doc["project"]["modules"] == 1


def test_multiple_roots_and_select_work_together(capsys):
    code = lint_main(
        ["--select", "determinism", CLEAN, REGRESSION, "--format", "json"]
    )
    assert code == 0  # the G601 regression is not a determinism finding
    doc = json.loads(capsys.readouterr().out)
    assert doc["project"]["modules"] == 6
    assert lint_main(["--select", "G601", CLEAN, REGRESSION, "-q"]) == 1


def test_list_rules_includes_project_catalog(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R501", "R502", "R503", "G601", "G602",
                    "P701", "P702", "P703"):
        assert rule_id in out


def test_baseline_suppresses_project_findings(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert lint_main(
        [REGRESSION, "--write-baseline", str(baseline)]
    ) == 0
    assert lint_main(
        [REGRESSION, "--baseline", str(baseline)]
    ) == 0
    assert "suppressed" in capsys.readouterr().out
