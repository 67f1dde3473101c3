"""CLI round trips: ``repro trace`` and ``repro run --metrics-out``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main
from repro.obs.cli import main as trace_main
from repro.runner.cli import main as runner_main


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced loss_sweep run shared by the assertions below."""
    out_dir = tmp_path_factory.mktemp("trace")
    trace_path = out_dir / "loss.jsonl"
    metrics_path = out_dir / "metrics.json"
    status = trace_main(
        [
            "loss_sweep",
            "--scale", "small",
            "--out", str(trace_path),
            "--metrics-out", str(metrics_path),
            "--quiet",
        ]
    )
    assert status == 0
    records = [
        json.loads(line) for line in trace_path.read_text().splitlines()
    ]
    return records, json.loads(metrics_path.read_text())


def test_trace_cli_emits_all_four_layers(traced):
    records, _ = traced
    assert records, "trace must not be empty"
    layers = {r["layer"] for r in records}
    assert {"sim", "net", "mac", "core"} <= layers


def test_trace_cli_records_carry_the_envelope(traced):
    records, _ = traced
    for r in records[:200]:
        assert {"t", "seq", "layer", "event", "unit"} <= set(r)


def test_trace_cli_is_ordered(traced):
    records, _ = traced
    seqs = [r["seq"] for r in records]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    # Sim time is non-decreasing except where a fresh private engine clock
    # starts (loss_sweep spins one transport simulation per frame, and each
    # restarts at t = 0) — `seq` is the total order across those clocks.
    unit = records[0]["unit"]
    sim_times = [
        r["t"] for r in records if r["unit"] == unit and r["layer"] == "sim"
    ]
    assert sim_times, "expected sim-layer events in the first unit"
    for prev, cur in zip(sim_times, sim_times[1:]):
        assert cur >= prev or cur == 0.0, (
            f"sim time went backwards without a clock restart: {prev} -> {cur}"
        )


def test_trace_cli_metrics_snapshot_covers_the_layers(traced):
    _, snap = traced
    layers = {entry["layer"] for entry in snap.values()}
    assert {"sim", "net"} <= layers
    assert snap["sim.events_fired"]["value"] > 0
    assert snap["net.packets_sent"]["value"] > 0


def test_trace_cli_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit) as err:
        trace_main(["frobnicate"])
    assert err.value.code == 2
    # The message itself, not the repr of the KeyError carrying it.
    stderr = capsys.readouterr().err
    assert "error: unknown experiment 'frobnicate'; registered: " in stderr
    registered = stderr.split("registered: ", 1)[1].strip().split(", ")
    assert "table1" in registered and registered == sorted(registered)


def test_trace_cli_rejects_negative_seed_before_any_unit_runs(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    with pytest.raises(SystemExit) as err:
        trace_main(["fig3d", "--seed", "-1", "--out", str(out)])
    assert err.value.code == 2
    assert "experiment 'fig3d': seed must be a non-negative integer, got -1" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_trace_subcommand_routed_from_main_cli(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert repro_main(["trace", "fig3d", "--scale", "small",
                       "--out", str(out), "--quiet"]) == 0
    assert out.exists()
    assert "trace:" in capsys.readouterr().out


def test_trace_cli_layer_filter_restricts_written_events(tmp_path, capsys):
    out = tmp_path / "net-only.jsonl"
    assert (
        trace_main(
            ["loss_sweep", "--scale", "small", "--out", str(out),
             "--quiet", "--layer", "net"]
        )
        == 0
    )
    printed = capsys.readouterr().out
    assert "filtered out" in printed
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records and all(r["layer"] == "net" for r in records)


def test_trace_cli_event_filter_composes_with_layer(tmp_path):
    out = tmp_path / "outcomes.jsonl"
    assert (
        trace_main(
            ["loss_sweep", "--scale", "small", "--out", str(out), "--quiet",
             "--layer", "net", "--event", "net.frame_outcome"]
        )
        == 0
    )
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records
    assert {r["event"] for r in records} == {"net.frame_outcome"}


def test_obs_and_bench_subcommands_routed_from_main_cli(tmp_path, capsys):
    trace_path = tmp_path / "t.jsonl"
    assert repro_main(["trace", "loss_sweep", "--scale", "small",
                       "--out", str(trace_path), "--quiet"]) == 0
    capsys.readouterr()
    assert repro_main(["obs", "analyze", str(trace_path), "--top", "1"]) == 0
    assert "blame over" in capsys.readouterr().out

    spec = tmp_path / "slo.json"
    spec.write_text(
        json.dumps({"slos": [{"metric": "frame_loss_rate", "max": 0.99}]}),
        encoding="utf-8",
    )
    assert repro_main(
        ["obs", "check", str(trace_path), "--spec", str(spec)]
    ) == 0
    assert "SLO check: PASS" in capsys.readouterr().out

    with pytest.raises(SystemExit) as err:
        repro_main(["bench", "--help"])
    assert err.value.code == 0
    assert "--kernels" in capsys.readouterr().out


def test_run_metrics_out_round_trip(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    status = runner_main(
        [
            "run", "loss_sweep",
            "--scale", "small",
            "--no-cache",
            "--quiet",
            "--metrics-out", str(path),
        ]
    )
    assert status == 0
    assert "metrics written to" in capsys.readouterr().out
    snap = json.loads(path.read_text())
    assert list(snap) == sorted(snap)
    assert snap["net.packets_sent"]["value"] > 0
    assert snap["net.frame_airtime_s"]["kind"] == "histogram"
    assert sum(snap["net.frame_airtime_s"]["counts"]) == (
        snap["net.frame_airtime_s"]["count"]
    )


def test_run_timings_include_profiler_phases(tmp_path):
    timings = tmp_path / "timings.json"
    status = runner_main(
        [
            "run", "fig3d",
            "--scale", "small",
            "--no-cache",
            "--quiet",
            "--timings", str(timings),
        ]
    )
    assert status == 0
    payload = json.loads(timings.read_text())
    assert {"plan", "execute", "merge"} <= set(payload["phases"])
    for phase in payload["phases"].values():
        assert phase["wall_s"] >= 0.0 and phase["count"] >= 1


def _memory_sink_jsonl(args):
    """What the in-memory sink records for ``repro trace ARGS``, as JSONL."""
    from repro.obs.trace import recording
    from repro.runner.registry import get_experiment, resolve_params

    experiment = get_experiment(args[0])
    params = resolve_params(experiment, scale="small")
    layers = [v for k, v in zip(args, args[1:]) if k == "--layer"]
    events = [v for k, v in zip(args, args[1:]) if k == "--event"]
    with recording(layers=layers, events=events) as recorder:
        for spec in experiment.decompose(params):
            recorder.clear_context()
            recorder.set_context(unit=spec.key())
            experiment.run_one(spec)
    return "".join(
        json.dumps(ev.to_jsonable(), separators=(",", ":")) + "\n"
        for ev in recorder.events
    ).encode()


def test_trace_cli_stream_is_byte_identical(tmp_path):
    # The CLI streams to disk; the file is byte-identical to what the
    # in-memory sink records for the same run, and to a second run.
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    args = ["loss_sweep", "--scale", "small", "--quiet"]
    assert trace_main([*args, "--out", str(first)]) == 0
    assert trace_main([*args, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == _memory_sink_jsonl(args)


def test_trace_cli_stream_composes_with_filters(tmp_path, capsys):
    out = tmp_path / "stream.jsonl"
    args = ["loss_sweep", "--scale", "small", "--quiet", "--layer", "net",
            "--event", "net.arq_round"]
    assert trace_main([*args, "--out", str(out)]) == 0
    assert "filtered out" in capsys.readouterr().out
    assert out.read_bytes() == _memory_sink_jsonl(args)
