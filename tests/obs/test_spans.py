"""Frame span groups in the single-pass fold: structural joins,
occurrences, annotations, and the trace reader underneath it."""

from __future__ import annotations

import json

import pytest

from repro.obs.stream import AnalyzeAccumulator, iter_events, stream_analyze


def _ev(seq, event, layer="net", t=0.0, **fields):
    return {"t": t, "seq": seq, "layer": layer, "event": event, **fields}


def _fold(events):
    """Fold events in order; every closed group lands in worst_frames."""
    acc = AnalyzeAccumulator(top=100)
    for ev in events:
        acc.add_event(ev)
    return acc, acc.finalize()


def _groups(report):
    """Closed span groups as ``(unit, frame, occurrence)``, sorted."""
    return sorted(
        (row["unit"], row["frame"], row["occurrence"])
        for row in report["worst_frames"]
    )


def test_events_without_frame_land_in_unframed():
    _, report = _fold([
        _ev(0, "mac.frame_plan", layer="mac", users=3),
        _ev(1, "core.adaptation_decision", layer="core", user=0),
    ])
    assert report["num_events"] == 2
    assert report["frames"]["total"] == 0
    assert report["worst_frames"] == []


def test_frame_outcome_closes_the_group():
    acc, report = _fold([
        _ev(0, "net.unit_tx", unit="u", frame=0, airtime_s=0.01, t=0.01),
        _ev(1, "net.frame_outcome", unit="u", frame=0, airtime_s=0.01,
            t=0.01, delivered_users=[0], lost_users=[], deadline_s=0.03),
    ])
    assert acc._open == {}
    assert report["frames"]["total"] == report["frames"]["closed"] == 1
    (row,) = report["worst_frames"]
    assert (row["unit"], row["frame"], row["occurrence"]) == ("u", 0, 0)
    assert row["status"] == "on_time"
    assert row["airtime_s"] == 0.01 and row["deadline_s"] == 0.03
    assert row["lost_users"] == []


def test_repeated_frame_indices_split_into_occurrences():
    # The loss sweep replays the same frame indices at every loss point:
    # a second net.frame_outcome for frame 0 must open occurrence 1, never
    # merge into occurrence 0.
    events = []
    for occurrence in range(3):
        base = occurrence * 2
        events.append(
            _ev(base, "net.unit_tx", unit="u", frame=0, airtime_s=0.01)
        )
        events.append(
            _ev(base + 1, "net.frame_outcome", unit="u", frame=0,
                airtime_s=0.01, delivered_users=[0], lost_users=[])
        )
    _, report = _fold(events)
    assert _groups(report) == [("u", 0, 0), ("u", 0, 1), ("u", 0, 2)]
    assert report["frames"]["total"] == report["frames"]["closed"] == 3


def test_same_frame_in_different_units_never_joins():
    _, report = _fold([
        _ev(0, "net.frame_outcome", unit="a", frame=0, airtime_s=0.01,
            delivered_users=[0], lost_users=[]),
        _ev(1, "net.frame_outcome", unit="b", frame=0, airtime_s=0.02,
            delivered_users=[0], lost_users=[]),
    ])
    assert _groups(report) == [("a", 0, 0), ("b", 0, 0)]
    assert report["units"] == ["a", "b"]


def test_annotation_events_join_the_closed_occurrence():
    # core.qoe_sample fires after the outcome; it must annotate the closed
    # attempt, not open a phantom occurrence that swallows the next one.
    acc, report = _fold([
        _ev(0, "net.frame_outcome", unit="u", frame=0, airtime_s=0.01,
            delivered_users=[0], lost_users=[]),
        _ev(1, "core.qoe_sample", layer="core", unit="u", frame=0,
            user=-1, fps=30.0),
        _ev(2, "net.frame_outcome", unit="u", frame=0, airtime_s=0.02,
            delivered_users=[0], lost_users=[]),
    ])
    assert report["num_events"] == 3
    assert _groups(report) == [("u", 0, 0), ("u", 0, 1)]
    assert report["frames"]["incomplete"] == 0 and acc._open == {}


def test_spans_derive_durations_from_event_fields():
    # Segment seconds come from the events' own duration fields; the
    # timestamps (which here disagree with them) are never subtracted.
    _, report = _fold([
        _ev(0, "net.arq_round", unit="u", frame=0, t=0.500, round=1,
            packets=5, cost_s=0.010, data_s=0.008, overhead_s=0.002,
            users=[0, 1]),
        _ev(1, "net.arq_deadline", unit="u", frame=0, t=0.900, round=2,
            wasted_s=0.003, users=[0, 1]),
        _ev(2, "net.frame_outcome", unit="u", frame=0, t=0.950,
            airtime_s=0.013, delivered_users=[0], lost_users=[1],
            deadline_s=0.033),
    ])
    (row,) = report["worst_frames"]
    assert row["status"] == "lost" and row["airtime_s"] == 0.013
    seg = row["segments"]
    assert seg["first_tx"] == 0.008 and seg["arq_feedback"] == 0.002
    assert seg["deadline_waste"] == 0.003


def test_reconstruction_is_deterministic():
    events = [
        _ev(0, "net.unit_tx", unit="u", frame=0, airtime_s=0.01),
        _ev(1, "net.frame_outcome", unit="u", frame=0, airtime_s=0.01,
            delivered_users=[0], lost_users=[]),
    ]
    a = json.dumps(_fold(events)[1], sort_keys=True)
    b = json.dumps(_fold(events)[1], sort_keys=True)
    assert a == b


def _write(path, records):
    path.write_text(
        "\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8"
    )
    return path


def test_load_events_round_trip(tmp_path):
    records = [_ev(0, "net.unit_tx", frame=0), _ev(1, "net.frame_outcome")]
    path = _write(tmp_path / "t.jsonl", records)
    assert list(iter_events(path)) == records


def test_load_events_reports_the_bad_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seq": 0}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        list(iter_events(path))


def test_iter_events_streams_lazily(tmp_path):
    records = [_ev(i, "net.unit_tx", frame=i) for i in range(5)]
    path = _write(tmp_path / "t.jsonl", records)
    it = iter_events(path)
    assert next(it) == records[0]  # pulls one record, not the whole file
    assert list(it) == records[1:]


def test_out_of_order_trace_is_a_clear_error(tmp_path):
    # Two swapped lines would fold into a silently different report (the
    # outcome would close nothing and the unit_tx would open a group that
    # never closes); the reader names the offending line instead.
    from repro.obs.cli import obs_main

    records = [
        _ev(0, "net.unit_tx", unit="u", frame=0, airtime_s=0.01),
        _ev(1, "net.frame_outcome", unit="u", frame=0, airtime_s=0.01,
            delivered_users=[0], lost_users=[]),
    ]
    path = _write(tmp_path / "t.jsonl", records[::-1])
    with pytest.raises(ValueError, match=r"t\.jsonl:2: seq 0 does not follow"):
        stream_analyze(path)
    with pytest.raises(SystemExit, match="reordered or concatenated"):
        obs_main(["analyze", str(path), "--quiet"])
    # A concatenation of two traces restarts seq: also refused.
    _write(path, records + records)
    with pytest.raises(ValueError, match=r"t\.jsonl:3"):
        stream_analyze(path)
    assert stream_analyze(_write(path, records))["frames"]["closed"] == 1


def test_truncated_trailing_record_is_a_clear_error(tmp_path):
    # A crash mid-flush leaves a final line with no newline; the reader
    # must say "truncated", not dump a JSON stack trace.
    path = tmp_path / "t.jsonl"
    complete = json.dumps(_ev(0, "net.unit_tx", frame=0))
    path.write_text(complete + "\n" + '{"t": 1.0, "seq": 1, "la')
    with pytest.raises(ValueError, match="truncated trace record"):
        list(iter_events(path))
    # The complete prefix still streams out before the error surfaces.
    it = iter_events(path)
    assert next(it)["seq"] == 0
    with pytest.raises(ValueError, match="t.jsonl:2"):
        next(it)


def test_partial_jsonl_mid_file_is_not_called_truncated(tmp_path):
    # Garbage on an interior (newline-terminated) line is corruption, not
    # a partial write — the error must say so, with the line number.
    path = tmp_path / "t.jsonl"
    path.write_text('{"seq": 0}\n{"seq": broken}\n{"seq": 2}\n')
    with pytest.raises(ValueError, match="t.jsonl:2: not valid JSON"):
        list(iter_events(path))


def test_non_object_record_is_rejected(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"seq": 0}\n[1, 2, 3]\n')
    with pytest.raises(ValueError, match="expected a JSON object"):
        list(iter_events(path))


def test_reconstruct_of_truncated_trace_cli_errors_cleanly(tmp_path):
    # End-to-end: `repro obs analyze` and `repro obs check` over a
    # truncated trace exit with a message, never a traceback.
    from repro.obs.cli import obs_main

    path = tmp_path / "t.jsonl"
    path.write_text('{"t": 0.0, "seq": 0, "layer": "net", "event"')
    with pytest.raises(SystemExit) as err:
        obs_main(["analyze", str(path), "--quiet"])
    assert "truncated trace record" in str(err.value)
    spec = tmp_path / "spec.json"
    spec.write_text('{"slos": [{"metric": "frame_loss_rate", "max": 1}]}')
    with pytest.raises(SystemExit) as err:
        obs_main(["check", str(path), "--spec", str(spec)])
    assert "truncated trace record" in str(err.value)
