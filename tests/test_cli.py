"""CLI smoke tests (small parameters, capture stdout)."""

import json

import pytest

from repro.cli import main


def test_cli_requires_experiment(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_study(capsys):
    assert main(["study", "--users", "8"]) == 0
    out = capsys.readouterr().out
    assert "PH" in out and "HM" in out
    assert "done in" in out


def test_cli_fig3d(capsys):
    assert main(["fig3d", "--instants", "20"]) == 0
    out = capsys.readouterr().out
    assert "improvement" in out


def test_cli_fig3b(capsys):
    assert main(["fig3b", "--instants", "15"]) == 0
    out = capsys.readouterr().out
    assert "coverage@-68dBm" in out


def test_cli_multiple_commands(capsys):
    assert main(["fig3d", "fig3b", "--instants", "10"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 3d" in out and "Fig. 3b" in out


def test_cli_loss_sweep(capsys):
    assert main(["loss_sweep"]) == 0
    out = capsys.readouterr().out
    assert "Loss sweep" in out
    assert "fec/arq goodput at 5% loss" in out


def test_cli_loss_sweep_single_mode(capsys):
    assert main(["loss_sweep", "--transport", "fec"]) == 0
    out = capsys.readouterr().out
    assert "fec Mbps|fps" in out
    assert "arq Mbps|fps" not in out
    assert "fec/arq" not in out  # ratio needs both modes


def test_cli_run_caches_and_reports(capsys, tmp_path):
    argv = [
        "run", "loss_sweep", "fig3d",
        "--scale", "small",
        "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Loss sweep" in out and "Fig. 3d" in out
    assert "5 run(s)" in out  # 4 loss_sweep modes + 1 fig3d unit
    hits = [line for line in out.splitlines() if line.endswith("cached")]
    assert not hits  # cold cache: everything computed

    assert main(argv) == 0
    out = capsys.readouterr().out
    hits = [line for line in out.splitlines() if line.endswith("cached")]
    assert len(hits) == 5  # every unit served from the cache


def test_cli_run_no_cache_writes_nothing(capsys, tmp_path):
    argv = [
        "run", "fig3d",
        "--scale", "small",
        "--no-cache",
        "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    assert not list(tmp_path.rglob("*.json"))


def test_cli_run_seed_override_changes_numbers(capsys, tmp_path):
    base = ["run", "fig3d", "--scale", "small", "--no-cache", "--quiet"]
    assert main(base) == 0
    out_default = capsys.readouterr().out
    assert main(base + ["--seed", "123"]) == 0
    out_reseeded = capsys.readouterr().out
    assert out_default != out_reseeded


def test_cli_run_rejects_unknown_experiment():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "frobnicate"])
    message = str(excinfo.value)
    assert "unknown experiment" in message and "table1" in message


def test_cli_run_writes_timings(capsys, tmp_path):
    timings = tmp_path / "timings.json"
    argv = [
        "run", "fig3d",
        "--scale", "small",
        "--no-cache",
        "--quiet",
        "--timings", str(timings),
    ]
    assert main(argv) == 0
    assert timings.exists()
    import json

    payload = json.loads(timings.read_text())
    assert payload["workers"] == 1
    assert payload["experiments"]["fig3d"]["runs"] == 1


def _experiment_blocks(out: str) -> str:
    """The printed result blocks, without timing lines."""
    lines = []
    for line in out.splitlines():
        if line.startswith(("Experiment ", "done in")):
            break
        lines.append(line)
    return "\n".join(lines).strip()


def test_cli_experiment_prints_the_runner_block(capsys):
    # Unset flags keep the registered defaults: the same block as
    # `repro run fig3b fig3e --no-cache` at default scale.
    assert main(["fig3b", "fig3e"]) == 0
    direct = _experiment_blocks(capsys.readouterr().out)
    assert main(["run", "fig3b", "fig3e", "--no-cache", "--quiet"]) == 0
    assert direct == _experiment_blocks(capsys.readouterr().out)


def test_cli_flags_override_declared_params(capsys):
    # fig3d's small scale is num_instants=40, loss_sweep's is num_frames=6.
    assert main(["fig3d", "loss_sweep", "--instants", "40", "--frames", "6"]) == 0
    direct = _experiment_blocks(capsys.readouterr().out)
    argv = ["run", "fig3d", "loss_sweep", "--scale", "small", "--no-cache", "--quiet"]
    assert main(argv) == 0
    assert direct == _experiment_blocks(capsys.readouterr().out)


def test_scenario_missing_spec_file_exits_2(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["scenario", "--spec", str(missing)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("invalid venue spec: ") and "nope.json" in err[0]


def test_scenario_malformed_spec_json_exits_2(capsys, tmp_path):
    spec = tmp_path / "venue.json"
    spec.write_text('{"rooms": [', encoding="utf-8")
    assert main(["scenario", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("invalid venue spec: ")


def test_scenario_json_creates_missing_parent_directories(capsys, tmp_path):
    out = tmp_path / "new" / "dir" / "x.json"
    argv = ["scenario", "--rooms", "1", "--shards", "1", "--duration", "2",
            "--capacity", "8", "--initial", "4", "--json", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["venue"]["rooms"] == 1
    assert f"wrote {out}" in capsys.readouterr().out
