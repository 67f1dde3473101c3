"""CLI round-trips for ``repro ablation``."""

from __future__ import annotations

import json

import pytest

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


def test_unknown_component_is_a_clean_error():
    with pytest.raises(SystemExit):
        ablation_main(["--components", "hyperdrive", "--no-cache"])


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


def test_repro_dispatches_ablation_verb(capsys):
    assert repro_main(["ablation", "--list"]) == 0
    assert "scenarios:" in capsys.readouterr().out
