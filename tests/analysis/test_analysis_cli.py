"""CLI behavior: exit codes, selection, baselines, and the `repro lint` alias."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.baseline import load_baseline
from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

from .conftest import FIXTURES

BAD = str(FIXTURES / "bad_determinism.py")
CLEAN = str(FIXTURES / "clean.py")


def test_violations_exit_nonzero(capsys):
    assert lint_main([BAD]) == 1
    out = capsys.readouterr().out
    assert "D101" in out and "finding(s)" in out


def test_clean_file_exits_zero(capsys):
    assert lint_main([CLEAN]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_list_rules_prints_every_family(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("D101", "U201", "S301", "H401"):
        assert rule_id in out


def test_select_limits_rules(capsys):
    # Only hygiene rules requested; the determinism fixture then passes.
    assert lint_main(["--select", "hygiene", BAD]) == 0


def test_select_unknown_rule_errors():
    with pytest.raises(SystemExit):
        lint_main(["--select", "nosuchrule", BAD])


def test_missing_path_is_a_one_line_usage_error():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[2] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repr0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "src/repr0" in proc.stderr


def test_path_without_python_files_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no code here\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        lint_main([CLEAN, str(tmp_path)])
    assert exc.value.code == 2
    assert "no Python files" in capsys.readouterr().err


def test_malformed_baseline_is_a_usage_error(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text('[{"path": "x.py"}]', encoding="utf-8")
    with pytest.raises(ValueError, match="baseline.json: record 0"):
        load_baseline(baseline)
    with pytest.raises(SystemExit) as exc:
        lint_main([CLEAN, "--baseline", str(baseline)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "baseline.json: record 0" in err and "Traceback" not in err


def test_write_then_apply_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert lint_main([BAD, "--write-baseline", str(baseline)]) == 0
    assert lint_main([BAD, "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "suppressed" in out


def test_repro_lint_subcommand_dispatches(capsys):
    assert repro_main(["lint", CLEAN]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_quiet_mode_prints_only_summary(capsys):
    assert lint_main(["-q", BAD]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and out[0].endswith("finding(s)")
