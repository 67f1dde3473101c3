"""Engine behavior: suppression, baselines, file handling, tree cleanliness."""

from pathlib import Path

from repro.analysis import (
    analyze,
    analyze_source,
    load_baseline,
    write_baseline,
)
from repro.analysis.baseline import apply_baseline
from repro.analysis.project.model import iter_python_files
from repro.analysis.rules import ALL_RULES, rule_ids, rules_by_family

from .conftest import FIXTURES


def test_clean_fixture_has_zero_findings(fixture_findings):
    assert fixture_findings("clean.py") == []


def test_whole_library_tree_is_clean(tree_report):
    """The gate the CI job enforces: src/repro itself lints clean."""
    active = tree_report.active()
    assert active == [], "\n".join(f.format() for f in active)


def test_inline_noqa_suppresses_matching_rule():
    src = "import time\nt = time.time()  # repro: noqa[D101]\n"
    findings = analyze_source(src)
    assert len(findings) == 1 and findings[0].suppressed


def test_blanket_noqa_suppresses_everything_on_the_line():
    src = "import time\nt = time.time()  # repro: noqa\n"
    findings = analyze_source(src)
    assert [f.suppressed for f in findings] == [True]


def test_noqa_for_other_rule_does_not_suppress():
    src = "import time\nt = time.time()  # repro: noqa[U201]\n"
    findings = analyze_source(src)
    assert [f.suppressed for f in findings] == [False]


def test_syntax_error_becomes_e000_finding():
    findings = analyze_source("def broken(:\n")
    assert [f.rule for f in findings] == ["E000"]


def test_baseline_roundtrip(tmp_path):
    findings = analyze([FIXTURES / "bad_hygiene.py"]).findings
    assert findings
    baseline_file = tmp_path / "baseline.json"
    count = write_baseline(baseline_file, findings)
    assert count == len(findings)
    baselined = apply_baseline(findings, load_baseline(baseline_file))
    assert all(f.suppressed for f in baselined)


def test_baseline_misses_new_findings(tmp_path):
    old = analyze([FIXTURES / "bad_hygiene.py"]).findings
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, old)
    new = analyze(
        [FIXTURES / "bad_hygiene.py", FIXTURES / "bad_units.py"]
    ).findings
    still_active = [
        f for f in apply_baseline(new, load_baseline(baseline_file))
        if not f.suppressed
    ]
    assert still_active and all("bad_units" in f.path for f in still_active)


def test_missing_baseline_is_empty():
    assert load_baseline(Path("/nonexistent/baseline.json")) == set()


def test_rule_subset_runs_only_selected_family():
    units_only = rules_by_family()["units"]
    report = analyze([FIXTURES / "bad_hygiene.py"], rules=units_only)
    assert report.findings == []


def test_iter_python_files_dedups_and_sorts(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("y = 2\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "c.py").write_text("z = 3\n")
    files = iter_python_files([tmp_path, tmp_path / "a.py"])
    assert [f.name for f in files] == ["a.py", "b.py"]


def test_rule_ids_are_unique_and_familied():
    ids = rule_ids()
    assert len(ids) == len(set(ids)) == len(ALL_RULES)
    assert set(rules_by_family()) == {
        "determinism", "units", "simproc", "hygiene", "docs",
        "rng-provenance", "shared-state", "cache-purity",
    }
    for rule in ALL_RULES:
        assert rule.summary and rule.severity in ("warning", "error")
