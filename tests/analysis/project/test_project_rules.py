"""R5xx / G6xx / P7xx behavior on the multi-file fixture packages."""

import textwrap

from repro.analysis import analyze


def _rule_files(report):
    """(rule, basename) pairs for every finding — line numbers stay free."""
    return sorted(
        (f.rule, f.path.rsplit("/", 1)[-1]) for f in report.findings
    )


def test_rng_package_findings(fixture_report):
    report = fixture_report("proj_rng")
    pairs = _rule_files(report)
    assert ("R501", "rngs.py") in pairs  # clock-seeded default_rng
    assert ("R502", "rngs.py") in pairs  # np.random.random in worker code
    # R503 twice: module-level RNG and `global` escape.
    assert pairs.count(("R503", "rngs.py")) == 2
    assert ("G602", "rngs.py") in pairs  # the same `global` rebinding
    # The ambient clock call also violates cache purity.
    assert ("P702", "rngs.py") in pairs


def test_state_package_findings_and_certification(fixture_report):
    report = fixture_report("proj_state")
    pairs = _rule_files(report)
    assert ("G601", "tally.py") in pairs
    assert ("G602", "registry.py") in pairs
    # register() is reachable from module scope only: certified, not flagged.
    assert not any(rule == "G601" and name == "registry.py"
                   for rule, name in pairs)
    certified = {
        (c["function"], c["global"]) for c in report.certified
    }
    assert certified == {
        ("proj_state.registry.register", "proj_state.registry.REGISTRY")
    }


def test_purity_package_findings(fixture_report):
    report = fixture_report("proj_purity")
    pairs = _rule_files(report)
    assert pairs.count(("P701", "measure.py")) == 2  # getenv + environ[...]
    assert ("P702", "measure.py") in pairs
    assert ("P703", "measure.py") in pairs


def test_clean_package_is_clean(fixture_report):
    report = fixture_report("proj_clean")
    assert report.findings == []
    assert [
        (c["function"], c["global"]) for c in report.certified
    ] == [("proj_clean.registry.register", "proj_clean.registry.REGISTRY")]


def test_regression_package_flags_post_import_registration(fixture_report):
    report = fixture_report("proj_regression")
    assert [f.rule for f in report.findings] == ["G601"]
    (finding,) = report.findings
    assert "_REGISTRY" in finding.message
    assert "run_one" in finding.message  # the reachability chain is quoted
    assert finding.severity == "error"


def test_noqa_suppresses_project_findings(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "mod.py").write_text(
        textwrap.dedent(
            """
            TABLE: dict = {}


            class Experiment:
                def __init__(self, run_one):
                    self.run_one = run_one


            def run_one(spec):
                TABLE[spec["k"]] = 1  # repro: noqa[G601] fixture keeps this
                return {}


            EXP = Experiment(run_one=run_one)
            """
        ),
        encoding="utf-8",
    )
    report = analyze([pkg])
    assert [f.rule for f in report.findings] == ["G601"]
    assert report.findings[0].suppressed
    assert report.active() == []
