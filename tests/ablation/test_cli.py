"""CLI round-trips for ``repro ablation``."""

from __future__ import annotations

import json

import pytest

from repro.ablation import cli
from repro.ablation.cli import main as ablation_main
from repro.ablation.engine import REPORT_SCHEMA
from repro.cli import main as repro_main


def _run(argv, capsys):
    status = ablation_main(argv)
    return status, capsys.readouterr().out


def test_list_names_components_and_scenarios(capsys):
    status, out = _run(["--list"], capsys)
    assert status == 0
    for needle in (
        "components:",
        "scenarios:",
        "custom_beams",
        "ablation_session",
    ):
        assert needle in out
    assert "legacy" not in out


def test_unknown_component_is_a_clean_error(capsys):
    with pytest.raises(SystemExit) as err:
        ablation_main(["--components", "hyperdrive", "--no-cache"])
    assert err.value.code == 2
    # The message itself, not the repr of the KeyError carrying it.
    assert "error: unknown component 'hyperdrive'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--components", "fec", "--pairwise"],
            "pairwise ablation needs at least two components",
        ),
        (
            ["--scenario", "venue", "--components", "prediction"],
            "scenario 'venue' has no toggle for component 'prediction'",
        ),
        (
            ["--components", "fec", "--seed", "-5"],
            "experiment 'ablation_importance': seed must be a non-negative "
            "integer, got -5",
        ),
        (
            ["--components", ","],
            "--components must name at least one component",
        ),
    ],
)
def test_invalid_selection_exits_cleanly_before_any_unit_runs(
    argv, message, monkeypatch, capsys
):
    def no_run(*args, **kwargs):
        raise AssertionError("a bad flag must be rejected before the study runs")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    with pytest.raises(SystemExit) as err:
        ablation_main([*argv, "--no-cache"])
    assert err.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_output_round_trip_and_cache_hit_byte_identity(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    base = [
        "--components",
        "fec,grouping",
        "--scale",
        "small",
        "--cache-dir",
        cache,
    ]
    status, out = _run([*base, "--parallel", "2", "--output", str(first)], capsys)
    assert status == 0
    assert "rank" in out and "no-fec" not in out  # table ranks components, not labels

    report = json.loads(first.read_text(encoding="utf-8"))
    assert report["schema"] == REPORT_SCHEMA
    assert report["components"] == ["fec", "grouping"]
    assert [r["component"] for r in report["ranking"]]
    assert len(report["runs"]) == 3

    # Second invocation: all units from cache, byte-identical file.
    status, out = _run([*base, "--output", str(second)], capsys)
    assert status == 0
    assert "3/3 work units served from cache" in out
    assert first.read_bytes() == second.read_bytes()


def test_output_creates_missing_parent_directories(tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "r.json"
    argv = ["--components", "fec", "--scale", "small", "--no-cache", "--quiet"]
    status, stdout = _run([*argv, "--output", str(out)], capsys)
    assert status == 0
    assert json.loads(out.read_text(encoding="utf-8"))["components"] == ["fec"]
    assert f"report written to {out}" in stdout


def test_repro_dispatches_ablation_verb(capsys):
    assert repro_main(["ablation", "--list"]) == 0
    assert "scenarios:" in capsys.readouterr().out
