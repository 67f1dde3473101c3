"""CLI smoke tests (small parameters, capture stdout)."""

import json

import pytest

from repro.cli import main


def _run(*argv: str) -> list[str]:
    """``repro run ARGV --no-cache --quiet`` as an argv list."""
    return ["run", *argv, "--no-cache", "--quiet"]


def test_cli_requires_experiment(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "run" in err[0] and "ablation" in err[0]


def test_cli_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_cli_study(capsys):
    assert main(_run("study", "--set", "num_users=8")) == 0
    out = capsys.readouterr().out
    assert "PH" in out and "HM" in out
    # Device enum order, not the sorted key order of the merged result.
    assert out.index("PH ") < out.index("HM ")


def test_cli_fig3d(capsys):
    assert main(_run("fig3d", "--set", "num_instants=20")) == 0
    out = capsys.readouterr().out
    assert "improvement" in out


def test_cli_fig3b(capsys):
    assert main(_run("fig3b", "--set", "num_instants=15")) == 0
    out = capsys.readouterr().out
    assert "coverage@-68dBm" in out


def test_cli_multiple_commands(capsys):
    assert main(_run("fig3d", "fig3b", "--set", "num_instants=10")) == 0
    out = capsys.readouterr().out
    assert "Fig. 3d" in out and "Fig. 3b" in out


def test_cli_loss_sweep(capsys):
    assert main(_run("loss_sweep")) == 0
    out = capsys.readouterr().out
    assert "Loss sweep" in out
    assert "fec/arq goodput at 5% loss" in out


def test_cli_loss_sweep_single_mode(capsys):
    assert main(_run("loss_sweep", "--set", "modes=fec")) == 0
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


def test_cli_run_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "frobnicate"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error: unknown experiment(s): frobnicate; registered: " in err
    registered = err.split("registered: ", 1)[1].strip().split(", ")
    assert "table1" in registered and registered == sorted(registered)


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


@pytest.fixture
def resolved(monkeypatch):
    """Record each experiment's resolved parameters; run no work unit."""
    from repro.runner import cli as runner_cli

    seen: dict[str, dict] = {}
    real = runner_cli.resolve_params

    def spy(experiment, overrides=None, scale="default"):
        params = real(experiment, overrides, scale=scale)
        seen[experiment.name] = params
        return params

    def no_units(*args, **kwargs):
        raise AssertionError("a work unit ran")

    monkeypatch.setattr(runner_cli, "resolve_params", spy)
    monkeypatch.setattr(runner_cli, "run_specs_iter", no_units)
    return seen


@pytest.mark.parametrize(
    "names, item, expected",
    [
        (["fig3d"], "num_instants=20", {"fig3d": ("num_instants", 20)}),
        (["study"], "duration_s=2.5", {"study": ("duration_s", 2.5)}),
        (["ablation_importance"], "pairwise=true",
         {"ablation_importance": ("pairwise", True)}),
        (["loss_sweep"], "modes=fec,arq", {"loss_sweep": ("modes", ("fec", "arq"))}),
        (["loss_sweep"], "loss_points=0.1,0.2",
         {"loss_sweep": ("loss_points", (0.1, 0.2))}),
        (["loss_sweep"], "quality=low", {"loss_sweep": ("quality", "low")}),
        # Declared by loss_sweep only: fig3d keeps its own parameters.
        (["fig3d", "loss_sweep"], "num_frames=6",
         {"loss_sweep": ("num_frames", 6), "fig3d": ("num_instants", 150)}),
    ],
)
def test_cli_run_set_parses_by_declared_default(resolved, names, item, expected):
    with pytest.raises(AssertionError, match="a work unit ran"):
        main(["run", *names, "--set", item, "--no-cache", "--quiet"])
    for name, (key, value) in expected.items():
        assert resolved[name][key] == value
        assert type(resolved[name][key]) is type(value)


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["fig3d", "--set", "num_instants"], "expected KEY=VALUE"),
        (["fig3d", "--set", "num_frames=6"], "no selected experiment declares"),
        (["fig3d", "--set", "num_instants=many"], "not a valid value"),
        (["ablation_importance", "--set", "pairwise=1"], "expected true or false"),
        (["loss_sweep", "--seed", "-5"], "seed must be a non-negative integer"),
    ],
)
def test_cli_run_bad_override_is_an_argparse_error(resolved, capsys, argv, needle):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", *argv, "--no-cache"])
    assert excinfo.value.code == 2
    errors = [
        line for line in capsys.readouterr().err.splitlines() if "error:" in line
    ]
    assert len(errors) == 1 and needle in errors[0]


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
