"""Baseline path normalization: repo-relative POSIX keys, sorted records."""

import json

from repro.analysis import analyze
from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)

from .conftest import FIXTURES

BAD = FIXTURES / "bad_determinism.py"


def test_written_baseline_uses_repo_relative_posix_paths(tmp_path):
    findings = analyze([BAD.resolve()]).findings  # absolute input path
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, findings)
    records = json.loads(baseline.read_text(encoding="utf-8"))
    assert records
    for record in records:
        assert record["path"] == "tests/analysis/fixtures/bad_determinism.py"
    keys = [(r["path"], r["rule"], r["line"]) for r in records]
    assert keys == sorted(keys)


def test_absolute_findings_match_relative_baseline(tmp_path, monkeypatch):
    # Baseline written from a repo-relative invocation...
    monkeypatch.chdir(BAD.parents[3])
    relative = analyze([BAD.relative_to(BAD.parents[3])]).findings
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, relative)
    # ...still suppresses findings produced from an absolute one.
    absolute = analyze([BAD.resolve()]).findings
    after = apply_baseline(absolute, load_baseline(baseline))
    assert after and all(f.suppressed for f in after)


def test_windows_separators_load_normalized(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            [
                {
                    "path": "tests\\analysis\\fixtures\\"
                    "bad_determinism.py",
                    "rule": "D101",
                    "line": 11,
                }
            ]
        ),
        encoding="utf-8",
    )
    keys = load_baseline(baseline)
    assert ("tests/analysis/fixtures/bad_determinism.py", "D101", 11) in keys


def test_loading_missing_baseline_is_empty():
    assert load_baseline("/nonexistent/baseline.json") == set()
