"""SLO specs: parsing, evaluation, and the `repro obs check` round trip."""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import main as trace_main, obs_main
from repro.obs.slo import (
    SLO_METRICS,
    SloEntry,
    evaluate_spec,
    format_results,
    load_spec,
    results_jsonable,
)
from repro.obs.stream import AnalyzeAccumulator, iter_events


def _ev(seq, event, layer="net", t=0.0, **fields):
    return {"t": t, "seq": seq, "layer": layer, "event": event, **fields}


def _fold(events):
    acc = AnalyzeAccumulator()
    for ev in events:
        acc.add_event(ev)
    return acc


def _metrics(events):
    acc = _fold(events)
    return {name: m.compute(acc) for name, m in SLO_METRICS.items()}


def _outcome(seq, unit, frame, airtime, delivered, lost=()):
    return _ev(seq, "net.frame_outcome", unit=unit, frame=frame,
               airtime_s=airtime, delivered_users=list(delivered),
               lost_users=list(lost))


def _played(seq, unit, frame, user=0):
    return _ev(seq, "core.frame_played", layer="core", unit=unit,
               frame=frame, user=user, on_time=True, quality="high")


def _state(seq, unit, state, user=0):
    return _ev(seq, "core.playback_state", layer="core", unit=unit,
               user=user, state=state)


def _write_spec(path, slos):
    path.write_text(json.dumps({"slos": slos}), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("slo") / "loss_sweep-trace.jsonl"
    assert (
        trace_main(
            ["loss_sweep", "--scale", "small", "--out", str(out), "--quiet"]
        )
        == 0
    )
    return out


def test_metric_catalog_is_declared_at_module_scope():
    assert {
        "frame_loss_rate", "stall_rate", "p95_frame_latency_s",
        "min_user_delivered_fps",
    } <= set(SLO_METRICS)
    for metric in SLO_METRICS.values():
        assert metric.help and metric.unit


def test_entry_rejects_unknown_metric_and_bad_bounds():
    with pytest.raises(ValueError, match="unknown SLO metric"):
        SloEntry(metric="nope", bound=1.0, kind="max")
    with pytest.raises(ValueError, match="'max' or 'min'"):
        SloEntry(metric="frame_loss_rate", bound=1.0, kind="between")
    with pytest.raises(ValueError, match="finite"):
        SloEntry(metric="frame_loss_rate", bound=float("inf"), kind="max")


def test_load_spec_validates_shape(tmp_path):
    (tmp_path / "a.json").write_text("{", encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_spec(tmp_path / "a.json")
    _write_spec(tmp_path / "b.json", [{"metric": "frame_loss_rate"}])
    with pytest.raises(ValueError, match="exactly one of 'max' or 'min'"):
        load_spec(tmp_path / "b.json")
    _write_spec(
        tmp_path / "c.json",
        [{"metric": "frame_loss_rate", "max": 0.5, "min": 0.1}],
    )
    with pytest.raises(ValueError, match="exactly one of 'max' or 'min'"):
        load_spec(tmp_path / "c.json")
    _write_spec(tmp_path / "d.json", [])
    with pytest.raises(ValueError, match="declares no SLOs"):
        load_spec(tmp_path / "d.json")
    entries = load_spec(
        _write_spec(
            tmp_path / "e.json",
            [
                {"metric": "frame_loss_rate", "max": 0.5},
                {"metric": "min_user_delivered_fps", "min": 1.0},
            ],
        )
    )
    assert [(e.metric, e.kind, e.bound) for e in entries] == [
        ("frame_loss_rate", "max", 0.5),
        ("min_user_delivered_fps", "min", 1.0),
    ]


def test_metrics_over_a_synthetic_trace():
    acc = _fold([
        _ev(0, "net.frame_outcome", unit="u", frame=0, t=0.01,
            airtime_s=0.010, delivered_users=[0, 1], lost_users=[]),
        _ev(1, "net.frame_outcome", unit="u", frame=1, t=0.05,
            airtime_s=0.040, delivered_users=[0], lost_users=[1]),
    ])
    assert SLO_METRICS["frame_loss_rate"].compute(acc) == 0.5
    assert SLO_METRICS["p95_frame_latency_s"].compute(acc) == 0.040
    # user 0: 2 frames / 0.05 s = 40 fps; user 1: 1 frame / 0.05 s = 20 fps.
    assert SLO_METRICS["min_user_delivered_fps"].compute(acc) == (
        pytest.approx(20.0)
    )
    # No played frames -> stall rate unavailable.
    assert SLO_METRICS["stall_rate"].compute(acc) is None


def test_stall_rate_counts_onsets_per_played_frame():
    events = [_outcome(i, "u", i, 0.01, [0]) for i in range(4)]
    events += [_played(4 + frame, "u", frame) for frame in range(4)]
    events += [
        _state(8, "u", "stalled"),
        _state(9, "u", "playing"),
        _state(10, "u", "stalled"),
    ]
    assert _metrics(events)["stall_rate"] == 0.5  # 2 onsets / 4 played


def test_frame_played_before_its_frame_opened_is_not_counted():
    events = [
        _played(0, "u", 7),             # frame 7 has not opened yet
        _outcome(1, "u", 7, 0.01, [0]),
        _outcome(2, "u", 8, 0.01, [0]),
        _played(3, "u", 8),
        _state(4, "u", "stalled"),
    ]
    assert _metrics(events)["stall_rate"] == 1.0  # 1 onset / 1 played
    assert _metrics(events[:1])["stall_rate"] is None


def test_repeated_frames_and_units_are_kept_apart():
    events = [
        _outcome(0, "a", 0, 0.01, [0]),
        _outcome(1, "a", 0, 0.03, [0]),          # occurrence 1 of a/0
        _outcome(2, "b", 0, 0.02, [0], lost=[1]),
        _outcome(3, "b", 1, 0.02, [0, 1]),
        _played(4, "a", 0),
        _played(5, "b", 0),
        _played(6, "c", 0),                      # unit c never opened 0
        _state(7, "a", "stalled"),
    ]
    values = _metrics(events)
    assert values["frame_loss_rate"] == 0.25
    assert values["p95_frame_latency_s"] == 0.03
    # a/0: 2 / 0.04 s, b/0: 2 / 0.04 s, b/1: 1 / 0.04 s -> floor 25 fps.
    assert values["min_user_delivered_fps"] == pytest.approx(25.0)
    assert values["stall_rate"] == 0.5


def test_slo_tallies_merge_like_a_single_pass():
    events = [
        _outcome(0, "a", 0, 0.01, [0]),
        _played(1, "a", 0),
        _outcome(2, "b", 0, 0.03, [0], lost=[1]),
        _played(3, "b", 0),
        _state(4, "b", "stalled"),
    ]
    merged = _fold([ev for ev in events if ev["unit"] == "a"])
    merged.merge(_fold([ev for ev in events if ev["unit"] == "b"]))
    single = _fold(events)
    assert {
        name: m.compute(merged) for name, m in SLO_METRICS.items()
    } == {name: m.compute(single) for name, m in SLO_METRICS.items()}


def test_evaluation_verdicts_and_unavailable_metric():
    acc = _fold([
        _ev(0, "net.frame_outcome", unit="u", frame=0, t=0.01,
            airtime_s=0.010, delivered_users=[0], lost_users=[]),
    ])
    results = evaluate_spec(
        [
            SloEntry("frame_loss_rate", 0.25, "max"),       # 0.0 <= 0.25: ok
            SloEntry("p95_frame_latency_s", 0.005, "max"),  # 0.010 > 0.005
            SloEntry("stall_rate", 1.0, "max"),             # unavailable
        ],
        acc,
    )
    assert [r.ok for r in results] == [True, False, False]
    assert results[2].value is None
    text = format_results(results)
    assert "[ok  ] frame_loss_rate" in text
    assert "[FAIL] p95_frame_latency_s" in text
    assert "stall_rate = unavailable" in text
    assert "SLO check: FAIL (1/3 satisfied)" in text
    doc = results_jsonable(results)
    assert doc["schema"] == "repro.obs.slo/1"
    assert doc["ok"] is False
    assert [r["ok"] for r in doc["results"]] == [True, False, False]


def test_check_cli_round_trip(trace_path, tmp_path, capsys):
    # Permissive spec: exit 0, PASS summary.
    passing = _write_spec(
        tmp_path / "pass.json",
        [
            {"metric": "frame_loss_rate", "max": 0.99},
            {"metric": "p95_frame_latency_s", "max": 10.0},
            {"metric": "min_user_delivered_fps", "min": 0.001},
        ],
    )
    results_json = tmp_path / "out" / "slo.json"
    code = obs_main([
        "check", str(trace_path), "--spec", str(passing),
        "--json", str(results_json),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "SLO check: PASS (3/3 satisfied)" in out
    doc = json.loads(results_json.read_text(encoding="utf-8"))
    assert doc["schema"] == "repro.obs.slo/1" and doc["ok"] is True

    # Impossible spec: exit 1 with a per-SLO violation report.
    failing = _write_spec(
        tmp_path / "fail.json",
        [
            {"metric": "frame_loss_rate", "max": 0.0},
            {"metric": "min_user_delivered_fps", "min": 10_000.0},
        ],
    )
    code = obs_main(["check", str(trace_path), "--spec", str(failing)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] frame_loss_rate" in out
    assert "[FAIL] min_user_delivered_fps" in out
    assert "SLO check: FAIL (0/2 satisfied)" in out


def test_check_cli_rejects_bad_spec_and_missing_trace(trace_path, tmp_path):
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text("{", encoding="utf-8")
    with pytest.raises(SystemExit, match="cannot read spec"):
        obs_main(["check", str(trace_path), "--spec", str(bad_spec)])
    spec = _write_spec(
        tmp_path / "ok.json", [{"metric": "frame_loss_rate", "max": 1.0}]
    )
    with pytest.raises(SystemExit, match="cannot read trace"):
        obs_main(["check", str(tmp_path / "missing.jsonl"), "--spec", str(spec)])


def test_analyze_cli_writes_canonical_json(trace_path, tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert obs_main(["analyze", str(trace_path), "--json", str(out_a)]) == 0
    assert (
        obs_main(
            ["analyze", str(trace_path), "--json", str(out_b), "--quiet"]
        )
        == 0
    )
    output = capsys.readouterr().out
    assert "blame over" in output
    # Determinism acceptance criterion: byte-identical reports across runs.
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text(encoding="utf-8"))
    assert doc["schema"] == "repro.obs.analyze/2"
    assert len(list(iter_events(trace_path))) == doc["num_events"]
