"""One lint pass: every rule family runs over one project model."""

from collections import Counter

import pytest

from repro.analysis import analyze, analyze_source
from repro.analysis.cli import main as lint_main
from repro.analysis.project import build_project

from .conftest import FIXTURES

# Per fixture: the findings of the per-file and whole-program tiers this
# pass replaced, united, with D102 -> R501 and D103 -> R502 and the
# duplicates collapsed.
EXPECTED = {
    "bad_determinism.py": {
        ("bad_determinism.py", 11, "D101"),
        ("bad_determinism.py", 12, "D101"),
        ("bad_determinism.py", 17, "R501"),
        ("bad_determinism.py", 18, "R501"),
        ("bad_determinism.py", 23, "R502"),
        ("bad_determinism.py", 24, "R502"),
        ("bad_determinism.py", 31, "D104"),
        ("bad_determinism.py", 33, "D104"),
        ("bad_determinism.py", 34, "D104"),
        ("bad_determinism.py", 40, "D105"),
        ("bad_determinism.py", 42, "D105"),
    },
    "bad_hygiene.py": {
        ("bad_hygiene.py", 6, "H402"),
        ("bad_hygiene.py", 7, "H401"),
        ("bad_hygiene.py", 12, "H403"),
    },
    "bad_simproc.py": {
        ("bad_simproc.py", 7, "S301"),
        ("bad_simproc.py", 9, "S302"),
        ("bad_simproc.py", 10, "S303"),
    },
    "bad_units.py": {
        ("bad_units.py", 5, "U201"),
        ("bad_units.py", 9, "U201"),
        ("bad_units.py", 13, "U201"),
        ("bad_units.py", 18, "U202"),
    },
    "clean.py": set(),
    "proj_clean": set(),
    "proj_purity": {
        ("proj_purity/measure.py", 8, "P702"),
        ("proj_purity/measure.py", 9, "P703"),
        ("proj_purity/measure.py", 10, "P701"),
        ("proj_purity/measure.py", 11, "P701"),
    },
    "proj_regression": {("proj_regression/registry.py", 7, "G601")},
    "proj_rng": {
        ("proj_rng/rngs.py", 8, "R503"),
        ("proj_rng/rngs.py", 14, "D101"),
        ("proj_rng/rngs.py", 14, "P702"),
        ("proj_rng/rngs.py", 14, "R501"),
        ("proj_rng/rngs.py", 19, "R502"),
        ("proj_rng/rngs.py", 25, "G602"),
        ("proj_rng/rngs.py", 25, "R503"),
    },
    "proj_state": {
        ("proj_state/registry.py", 15, "G602"),
        ("proj_state/tally.py", 10, "G601"),
    },
}


def test_every_fixture_is_pinned():
    # Earlier tests may import a fixture, leaving a bytecode cache behind.
    fixtures = [p.name for p in FIXTURES.iterdir() if p.name != "__pycache__"]
    assert sorted(EXPECTED) == sorted(fixtures)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_findings_are_the_union_of_both_old_tiers(name):
    findings = analyze([FIXTURES / name]).findings
    got = [
        (f.path.split("fixtures/", 1)[1], f.line, f.rule) for f in findings
    ]
    assert len(got) == len(set(got))
    assert set(got) == EXPECTED[name]


def test_no_location_carries_two_rng_findings(tree_report):
    # A seed drawn from the global stream is one finding (R502), not also
    # an ambient-seed R501.
    src = (
        "import random\n"
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.default_rng(random.randint(0, 9))\n"
    )
    assert [f.rule for f in analyze_source(src)] == ["R502"]
    findings = [*tree_report.findings, *analyze_source(src)]
    for name in EXPECTED:
        findings.extend(analyze([FIXTURES / name]).findings)
    rng_sites = Counter(
        (f.path, f.line, f.col) for f in findings if f.rule.startswith("R5")
    )
    assert rng_sites and max(rng_sites.values()) == 1


def test_worker_reachable_global_stream_quotes_the_chain(fixture_findings):
    (worker,) = [
        f for f in analyze([FIXTURES / "proj_rng"]).findings
        if f.rule == "R502"
    ]
    assert "proj_rng.exp.run_one -> proj_rng.rngs.sample_global" in (
        worker.message
    )
    loose = [f for f in fixture_findings("bad_determinism.py")
             if f.rule == "R502"]
    assert loose and all("worker-reachable" not in f.message for f in loose)


def test_syntax_error_inside_a_package_fails_the_gate(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "good.py").write_text("def ok():\n    return 1\n", encoding="utf-8")
    (pkg / "broken.py").write_text("def f(:\n", encoding="utf-8")
    report = analyze([pkg])
    assert report.modules == 2
    (finding,) = report.findings
    assert finding.rule == "E000" and finding.path.endswith("pkg/broken.py")
    assert finding.severity == "error"
    assert lint_main([str(pkg)]) == 1
    assert "E000" in capsys.readouterr().out


def test_paths_mix_files_packages_and_plain_directories(tmp_path):
    # Module names come from each file's __init__.py chain; a loose file
    # is a top-level module, and a second loose file with the same stem
    # is keyed by its path instead of shadowing the first.
    model = build_project([FIXTURES, FIXTURES / "clean.py"])
    assert {"clean", "bad_units", "proj_rng", "proj_rng.rngs"} <= set(
        model.modules
    )
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "tool.py").write_text("X = 1\n", encoding="utf-8")
    model = build_project([tmp_path / "b", tmp_path / "a"])
    assert len(model.modules) == 2
    assert model.modules["tool"].relpath.endswith("a/tool.py")
