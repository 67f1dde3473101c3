"""The trace recorder: ordering, engine hooks, context, sinks, JSONL shape."""

from __future__ import annotations

import json

import pytest

from repro.obs import trace
from repro.obs.trace import (
    TraceRecorder,
    event_type,
    recording,
    streaming_recording,
)
from repro.sim import Environment

_EV_TEST = event_type(
    "test.ping", layer="core", help="test-only event", fields=("n",)
)


def test_emit_without_recorder_is_a_noop():
    assert trace.active() is None
    _EV_TEST.emit(t=1.0, n=1)  # must not raise, must not record anywhere


def test_recording_installs_and_uninstalls():
    with recording() as recorder:
        assert trace.active() is recorder
        _EV_TEST.emit(t=0.5, n=7)
    assert trace.active() is None
    assert len(recorder) == 1
    assert recorder.events[0].event == "test.ping"
    assert recorder.events[0].fields == {"n": 7}


def test_double_install_is_rejected():
    with recording():
        with pytest.raises(RuntimeError):
            trace.install(TraceRecorder())


def test_event_type_declaration_is_idempotent():
    again = event_type("test.ping", layer="other")
    assert again is _EV_TEST
    assert again.layer == "core"  # first declaration wins


def test_seq_is_a_strict_total_order():
    with recording() as recorder:
        for n in range(5):
            _EV_TEST.emit(t=0.0, n=n)  # identical timestamps
    seqs = [ev.seq for ev in recorder.events]
    assert seqs == sorted(seqs) and len(set(seqs)) == 5


def test_context_fields_merge_into_events():
    with recording() as recorder:
        recorder.set_context(unit="spec-a")
        _EV_TEST.emit(t=0.0, n=1)
        recorder.clear_context()
        _EV_TEST.emit(t=0.0, n=2)
    assert recorder.events[0].fields == {"unit": "spec-a", "n": 1}
    assert recorder.events[1].fields == {"n": 2}


def test_ambient_time_defaults_to_recorder_now():
    with recording() as recorder:
        recorder.now = 3.25
        _EV_TEST.emit(n=1)  # no explicit t
    assert recorder.events[0].t == 3.25


def _two_process_sim():
    env = Environment()

    def worker(delay):
        yield env.timeout(delay)

    env.process(worker(1.0))
    env.process(worker(2.0))
    env.run()


def test_engine_hooks_emit_sim_events_in_time_order():
    with recording() as recorder:
        _two_process_sim()
    names = {ev.event for ev in recorder.events}
    assert {
        "sim.schedule", "sim.fire", "sim.process_spawn", "sim.process_finish"
    } <= names
    # All engine events are attributed to the sim layer and, within one
    # Environment, land in non-decreasing sim-time order.
    times = [ev.t for ev in recorder.events if ev.layer == "sim"]
    assert times == sorted(times)
    finishes = [ev for ev in recorder.events if ev.event == "sim.process_finish"]
    assert [ev.t for ev in finishes] == [1.0, 2.0]


def test_tracing_does_not_change_sim_behavior():
    env = Environment()
    log: list[float] = []

    def worker():
        yield env.timeout(1.5)
        log.append(env.now)

    env.process(worker())
    env.run()

    with recording():
        env2 = Environment()
        log2: list[float] = []

        def worker2():
            yield env2.timeout(1.5)
            log2.append(env2.now)

        env2.process(worker2())
        env2.run()
    assert log == log2 == [1.5]


def _jsonl(events):
    """The file sink's serialization of in-memory events."""
    return "".join(
        json.dumps(ev.to_jsonable(), separators=(",", ":")) + "\n"
        for ev in events
    )


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "out.jsonl"
    with streaming_recording(path) as recorder:
        recorder.set_context(unit="u")
        _EV_TEST.emit(t=0.25, n=1)
        _EV_TEST.emit(t=0.5, n=2)
    assert recorder.events == []  # the file is the sink
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "t": 0.25, "seq": 0, "layer": "core", "event": "test.ping",
        "n": 1, "unit": "u",
    }
    # Envelope keys lead every record, in a fixed order.
    assert list(first)[:4] == ["t", "seq", "layer", "event"]


def test_write_jsonl_creates_missing_parent_dirs(tmp_path):
    target = tmp_path / "a" / "b" / "c" / "out.jsonl"
    assert not target.parent.exists()
    with streaming_recording(target) as recorder:
        _EV_TEST.emit(t=0.0, n=1)
    assert recorder.path == target and target.is_file()
    assert json.loads(target.read_text().splitlines()[0])["n"] == 1


def test_correlation_helper_drops_unset_fields():
    assert trace.correlation() == {}
    assert trace.correlation(frame=3) == {"frame": 3}
    assert trace.correlation(frame=0, user=0, users=[2, 1]) == {
        "frame": 0, "user": 0, "users": [2, 1],
    }
    assert trace.correlation(room="room0", ap="ap0") == {
        "room": "room0", "ap": "ap0",
    }
    # The declared correlation field names are what spans join on.
    assert trace.CORRELATION_FIELDS == (
        "unit", "room", "ap", "frame", "user", "users"
    )


def test_streaming_recorder_writes_byte_identical_jsonl(tmp_path, monkeypatch):
    # The two sinks of the one recorder: the file holds exactly the
    # in-memory events, serialized line by line, across flush boundaries.
    monkeypatch.setattr(trace, "FLUSH_EVERY", 3)
    path = tmp_path / "stream.jsonl"
    with recording() as recorder:
        recorder.set_context(unit="u")
        for n in range(10):
            _EV_TEST.emit(t=n * 0.1, n=n)
    with streaming_recording(path) as srec:
        srec.set_context(unit="u")
        for n in range(10):
            _EV_TEST.emit(t=n * 0.1, n=n)
    assert path.read_text(encoding="utf-8") == _jsonl(recorder.events)
    assert len(srec) == len(recorder) == 10
    assert srec.recorded == recorder.recorded == 10


def test_streaming_recorder_flushes_incrementally(tmp_path, monkeypatch):
    monkeypatch.setattr(trace, "FLUSH_EVERY", 2)
    path = tmp_path / "t.jsonl"
    with streaming_recording(path):
        _EV_TEST.emit(t=0.0, n=0)
        _EV_TEST.emit(t=0.1, n=1)  # hits FLUSH_EVERY: both lines on disk
        _EV_TEST.emit(t=0.2, n=2)  # pending until close
        assert len(path.read_text().splitlines()) == 2
    assert len(path.read_text().splitlines()) == 3


def test_streaming_recorder_filters_but_keeps_seq_parity(tmp_path):
    # Filters drop records at record time, in either sink, but never
    # renumber: the kept seq values match a full recording.
    path = tmp_path / "t.jsonl"
    other = event_type(
        "test.pong", layer="net", help="test-only event", fields=("n",)
    )
    kept = {}
    for target in (None, path):
        with recording(target, layers=["net"]) as rec:
            _EV_TEST.emit(t=0.0, n=0)   # core: filtered out, still seq 0
            other.emit(t=0.1, n=1)      # net: kept with seq 1
            _EV_TEST.emit(t=0.2, n=2)
        assert rec.recorded == 3 and len(rec) == 1
        assert rec.layer_counts() == {"net": 1}
        kept[target] = [ev.seq for ev in rec.events]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert kept[None] == [r["seq"] for r in records] == [1]
    assert kept[path] == []  # the file sink retains nothing


def test_streaming_recorder_uninstalls_and_closes_on_error(tmp_path):
    path = tmp_path / "t.jsonl"
    with pytest.raises(RuntimeError, match="boom"):
        with streaming_recording(path):
            _EV_TEST.emit(t=0.0, n=0)
            raise RuntimeError("boom")
    assert trace.active() is None
    assert len(path.read_text().splitlines()) == 1  # pending flushed
