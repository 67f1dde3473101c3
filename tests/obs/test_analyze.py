"""Deadline critical-path attribution: exactness, aggregation, determinism."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.analyze import SEGMENT_ORDER, SEGMENTS, format_report
from repro.obs.cli import main as trace_main
from repro.obs.stream import AnalyzeAccumulator, iter_events, stream_analyze


def _ev(seq, event, layer="net", t=0.0, **fields):
    return {"t": t, "seq": seq, "layer": layer, "event": event, **fields}


def _closed_frames(events):
    """Every closed frame's report row (segments, airtime), in fold order."""
    acc = AnalyzeAccumulator(top=10**9)
    for ev in events:
        acc.add_event(ev)
    return acc.finalize()["worst_frames"]


def _attribute(events):
    """The segment attribution of the one frame ``events`` close."""
    (row,) = _closed_frames(events)
    return row["segments"], row["airtime_s"]


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A real loss_sweep trace: every transport mode, frames lost at high loss."""
    out = tmp_path_factory.mktemp("analyze") / "loss_sweep-trace.jsonl"
    assert (
        trace_main(
            ["loss_sweep", "--scale", "small", "--out", str(out), "--quiet"]
        )
        == 0
    )
    return out


def test_segment_catalog_covers_all_layers():
    assert set(SEGMENT_ORDER) == set(SEGMENTS)
    layers = {seg.layer for seg in SEGMENTS.values()}
    assert layers == {"net", "mac", "core"}
    for seg in SEGMENTS.values():
        assert seg.help, f"segment {seg.name} needs help text"


def test_per_frame_blame_sums_exactly_to_frame_latency(trace_path):
    # The acceptance criterion: per-layer blame totals for each frame sum
    # *exactly* (==, not approx) to the frame's end-to-end latency.
    closed = _closed_frames(iter_events(trace_path))
    assert closed, "trace produced no closed frames"
    for row in closed:
        seg = row["segments"]
        assert set(seg) == set(SEGMENT_ORDER)
        assert math.fsum(seg.values()) == row["airtime_s"], row["frame"]


def test_arq_frame_attribution_splits_rounds_and_waste():
    seg, airtime = _attribute([
        _ev(0, "net.arq_round", unit="u", frame=0, round=1,
            cost_s=0.010, data_s=0.008, overhead_s=0.002),
        _ev(1, "net.arq_round", unit="u", frame=0, round=2,
            cost_s=0.005, data_s=0.004, overhead_s=0.001),
        _ev(2, "net.arq_deadline", unit="u", frame=0, round=3,
            wasted_s=0.002),
        _ev(3, "net.frame_outcome", unit="u", frame=0, airtime_s=0.017,
            delivered_users=[0], lost_users=[1]),
    ])
    assert seg["first_tx"] == pytest.approx(0.008)
    assert seg["arq_retx"] == pytest.approx(0.004)
    assert seg["arq_feedback"] == pytest.approx(0.003)
    assert seg["deadline_waste"] == pytest.approx(0.002)
    assert seg["fec_repair"] == 0.0 and seg["beam_switch"] == 0.0
    assert math.fsum(seg.values()) == airtime


def test_fec_and_beam_attribution():
    seg, airtime = _attribute([
        _ev(0, "net.beam_switch", unit="u", frame=0, overhead_s=0.001),
        _ev(1, "net.fec_tx", unit="u", frame=0, airtime_s=0.012,
            source_s=0.009, repair_s=0.003, k=10, n_sent=14),
        _ev(2, "net.frame_outcome", unit="u", frame=0, airtime_s=0.013,
            delivered_users=[0], lost_users=[]),
    ])
    assert seg["beam_switch"] == pytest.approx(0.001)
    assert seg["first_tx"] == pytest.approx(0.009)
    assert seg["fec_repair"] == pytest.approx(0.003)
    assert math.fsum(seg.values()) == airtime


def test_ideal_frame_with_no_breakdown_is_all_first_tx():
    # Ideal (fluid) mode emits only net.frame_outcome: the whole latency
    # is one uninterrupted first transmission, never `unattributed`.
    seg, airtime = _attribute([
        _ev(0, "net.frame_outcome", unit="u", frame=0, airtime_s=0.020,
            delivered_users=[0], lost_users=[]),
    ])
    assert seg["first_tx"] == 0.020
    assert seg["unattributed"] == 0.0
    assert math.fsum(seg.values()) == airtime


def test_untraced_gap_lands_in_unattributed():
    # Breakdown events that do not cover the recorded latency leave an
    # explicit residual, keeping the exact-sum invariant honest.
    seg, airtime = _attribute([
        _ev(0, "net.arq_round", unit="u", frame=0, round=1,
            cost_s=0.010, data_s=0.008, overhead_s=0.002),
        _ev(1, "net.frame_outcome", unit="u", frame=0, airtime_s=0.025,
            delivered_users=[0], lost_users=[]),
    ])
    assert seg["unattributed"] > 0.0
    assert math.fsum(seg.values()) == airtime


def test_analyze_report_counts_and_blame(trace_path):
    report = stream_analyze(trace_path)
    assert report["schema"] == "repro.obs.analyze/2"
    frames = report["frames"]
    assert frames["total"] == frames["closed"] + frames["incomplete"]
    assert frames["closed"] == (
        frames["on_time"] + frames["late"] + frames["lost"]
    )
    assert frames["incomplete"] == 0
    assert frames["lost"] > 0, "loss sweep at small scale must lose frames"
    blame = report["blame"]
    assert blame["all"]["frames"] == frames["closed"]
    assert blame["problem"]["frames"] == frames["late"] + frames["lost"]
    # The blame aggregate preserves the exact-sum invariant: segment
    # seconds fsum to the scope's total airtime.
    for scope in ("all", "late", "lost", "problem"):
        entry = blame[scope]
        seg_total = math.fsum(
            cell["seconds"] for cell in entry["segments"].values()
        )
        assert seg_total == pytest.approx(entry["airtime_s"], abs=1e-12)
        layer_total = math.fsum(entry["by_layer"].values())
        assert layer_total == pytest.approx(entry["airtime_s"], abs=1e-12)
    # Lost frames burn ARQ budget: the problem blame table must attribute
    # nonzero time to retransmissions or deadline waste.
    problem_segments = blame["problem"]["segments"]
    assert (
        problem_segments["arq_retx"]["seconds"] > 0.0
        or problem_segments["deadline_waste"]["seconds"] > 0.0
    )


def test_analyze_worst_frames_are_sorted_and_bounded(trace_path):
    report = stream_analyze(trace_path, top=3)
    worst = report["worst_frames"]
    assert len(worst) == 3
    airtimes = [row["airtime_s"] for row in worst]
    assert airtimes == sorted(airtimes, reverse=True)
    for row in worst:
        assert set(row["segments"]) == set(SEGMENT_ORDER)


def test_analyze_is_bit_identical_across_runs(trace_path):
    a = json.dumps(stream_analyze(trace_path), sort_keys=True)
    b = json.dumps(stream_analyze(trace_path), sort_keys=True)
    assert a == b


def test_format_report_renders_the_blame_table(trace_path):
    text = format_report(stream_analyze(trace_path))
    assert "frames:" in text
    assert "blame over" in text
    assert "worst frames by delivery latency:" in text
    assert "segment" in text and "layer" in text
