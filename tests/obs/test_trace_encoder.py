"""The file sink's line encoder and the trace reader against their references.

The encoder writes each JSONL line directly; ``_trace_line_reference`` is
the generic ``json.dumps`` of the record's canonical dict, and every line
must match it byte for byte.  The reader decodes each line with one
scanner call; ``_reference_iter_events`` below is the ``json.loads``
reader it replaced, and the events and every diagnostic must match it.
"""

from __future__ import annotations

import gc
import json
import warnings

import numpy as np
import pytest

import repro.experiments  # noqa: F401  (declares every event type)
from repro.obs import trace
from repro.obs.stream import iter_events
from repro.obs.trace import (
    EVENT_TYPES,
    _trace_line_reference,
    event_type,
    recording,
    streaming_recording,
)
from repro.runner import RunSpec, run_specs

_EV_ENC = event_type(
    "test.encode", layer="core", help="test-only event", fields=("n",)
)


class _Label(str):
    pass


class _Count(int):
    pass


_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
    2.2250738585072014e-308 / 7, 1.7976931348623157e308, 0.1, 1 / 3,
    -2.5e-17, 1e22, 123456789.0,
]
_TIMES = _FLOATS + [
    np.float64(0.1), np.float64("nan"), np.float64(-0.0), np.float64(1e300),
]
_VALUES = _TIMES + [
    0, -1, 7, 2**63, -(2**100), 10**40, _Count(5),
    True, False,
    "", "plain", "héllo ✓", "日本語", "\x00\x1f\"\\\n\t\x7f", "\ud800",
    _Label("sub"),
    None, [], [1, 2.5, None, "x"], [[1, [2, [float("nan"), True]]], []],
    (3, -0.0), {"b": 1, "a": [1.5, None]},
]


def _reference_jsonl(records):
    return "".join(
        _trace_line_reference(t, seq, kind, fields) + "\n"
        for t, seq, kind, fields in records
    )


def test_line_encoder_matches_reference_for_every_event_type(tmp_path):
    assert len(EVENT_TYPES) > 20
    rng = np.random.default_rng(20231)
    path = tmp_path / "t.jsonl"
    expected = []
    with streaming_recording(path) as recorder:
        seq = 0
        for name in sorted(EVENT_TYPES):
            kind = EVENT_TYPES[name]
            for _ in range(12):
                names = list(kind.fields)
                # Callers pass declared fields in any order, some omitted,
                # plus correlation fields the declaration does not list.
                rng.shuffle(names)
                names = names[: rng.integers(len(names) + 1)]
                if rng.random() < 0.5:
                    names.append(trace.CORRELATION_FIELDS[
                        rng.integers(len(trace.CORRELATION_FIELDS))
                    ])
                fields = {
                    name: _VALUES[rng.integers(len(_VALUES))]
                    for name in dict.fromkeys(names)
                }
                if rng.random() < 0.3:
                    recorder.now = _FLOATS[rng.integers(len(_FLOATS))]
                    t = None
                else:
                    t = _TIMES[rng.integers(len(_TIMES))]
                kind.emit(t=t, **fields)
                t_eff = recorder.now if t is None else float(t)
                expected.append((t_eff, seq, kind, fields))
                seq += 1
    assert path.read_text(encoding="utf-8") == _reference_jsonl(expected)


def test_line_encoder_merges_context_and_field_overrides(tmp_path):
    path = tmp_path / "t.jsonl"
    context = {"unit": "u", "frame": 99, "room": _Label("r"), "a": [None]}
    with streaming_recording(path) as recorder:
        recorder.set_context(**context)
        _EV_ENC.emit(t=0.5, n=1, frame=3)
        _EV_ENC.emit(t=0.5, n=2)
        recorder.context.pop("frame")
        _EV_ENC.emit(t=0.75, n=3, frame=4)
        recorder.clear_context()
        _EV_ENC.emit(t=1.0, n=4, frame=5)
    expected = _reference_jsonl([
        (0.5, 0, _EV_ENC, {**context, "n": 1, "frame": 3}),
        (0.5, 1, _EV_ENC, {**context, "n": 2}),
        (0.75, 2, _EV_ENC, {"unit": "u", "room": "r", "a": [None],
                            "n": 3, "frame": 4}),
        (1.0, 3, _EV_ENC, {"n": 4, "frame": 5}),
    ])
    assert path.read_text(encoding="utf-8") == expected
    first = json.loads(expected.splitlines()[0])
    assert first["frame"] == 3 and first["unit"] == "u"


def test_line_encoder_keeps_envelope_order_when_a_field_shadows_it(tmp_path):
    path = tmp_path / "t.jsonl"
    with streaming_recording(path):
        _EV_ENC.emit(t=0.5, n=1, layer="x", event="y", seq=-1)
        _EV_ENC.emit(t=0.5, n=2)
    expected = _reference_jsonl([
        (0.5, 0, _EV_ENC, {"n": 1, "layer": "x", "event": "y", "seq": -1}),
        (0.5, 1, _EV_ENC, {"n": 2}),
    ])
    assert path.read_text(encoding="utf-8") == expected
    assert expected.startswith('{"t":0.5,"seq":-1,"layer":"x","event":"y",')


def test_filtered_events_consume_seq_in_the_encoded_lines(tmp_path):
    other = event_type(
        "test.encode_net", layer="net", help="test-only event", fields=("n",)
    )
    for filters in ({"layers": ["net"]}, {"events": ["test.encode_net"]}):
        path = tmp_path / "t.jsonl"
        with streaming_recording(path, **filters) as recorder:
            recorder.set_context(unit="u")
            for n in range(6):
                (other if n % 3 == 1 else _EV_ENC).emit(t=n * 0.1, n=n)
        expected = _reference_jsonl(
            (n * 0.1, n, other, {"unit": "u", "n": n}) for n in (1, 4)
        )
        assert path.read_text(encoding="utf-8") == expected
        assert recorder.recorded == 6 and len(recorder) == 2


def test_unencodable_field_names_the_event_and_field(tmp_path):
    path = tmp_path / "t.jsonl"
    with pytest.raises(TypeError) as err:
        with streaming_recording(path):
            _EV_ENC.emit(t=0.0, n=np.int64(3))
    message = str(err.value)
    assert "'test.encode'" in message and "field 'n'" in message
    assert "int64" in message
    # A context value is named the same way.
    with pytest.raises(TypeError, match=r"'test\.encode'.*field 'unit'"):
        with streaming_recording(path) as recorder:
            recorder.set_context(unit={1, 2})
            _EV_ENC.emit(t=0.0, n=1)


def test_nested_recording_leaves_the_existing_trace_intact(tmp_path):
    path = tmp_path / "t.jsonl"
    with streaming_recording(path):
        _EV_ENC.emit(t=0.0, n=1)
    before = path.read_bytes()
    assert before
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with recording():
            with pytest.raises(RuntimeError, match="already installed"):
                with streaming_recording(path):
                    pass
        gc.collect()
    assert path.read_bytes() == before
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# -- the reader ---------------------------------------------------------------


def _reference_iter_events(path):
    """The ``json.loads`` reader: the diagnostics the scanner must keep."""
    with open(path, "r", encoding="utf-8") as fh:
        lineno = 0
        last_seq = None
        for raw in fh:
            lineno += 1
            line = raw.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                if not raw.endswith("\n"):
                    raise ValueError(
                        f"{path}:{lineno}: truncated trace record (partial "
                        f"write?): {line[:60]!r}"
                    ) from exc
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            seq = event.get("seq")
            if isinstance(seq, int):
                if last_seq is not None and seq <= last_seq:
                    raise ValueError(
                        f"{path}:{lineno}: seq {seq} does not follow seq "
                        f"{last_seq} (reordered or concatenated trace?)"
                    )
                last_seq = seq
            yield event


def _outcome(reader, path):
    try:
        return "ok", list(reader(path))
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "bad",
    [
        '{"seq": broken}\n',
        '{"a":1},{"b":2}\n',
        '{"a":1} {"b":2}\n',
        '{"a":1}}\n',
        '\ufeff{"seq": 5}\n',
        '[1, 2]\n',
        'NaN\n',
        '"text"\n',
        '{"seq": 0}\n',
        '{"seq": 5, "x": Infinity}\n',
        '\t {"seq": 6}\x0b\n',
        '{"seq": 7, "x": [1,\n',
        '{"t": 1.0, "seq": 7, "la',
        '{"seq": 7}',
        '{"a": "\\ud800"}\n',
        '{"a": "tab\there"}\n',
    ],
)
def test_reader_matches_reference_events_and_diagnostics(tmp_path, bad):
    path = tmp_path / "t.jsonl"
    path.write_text('{"seq": 1}\n\n{"seq": 2, "v": [1.5, null]}\n' + bad,
                    encoding="utf-8")
    assert _outcome(iter_events, path) == _outcome(_reference_iter_events, path)


def test_reader_rejects_two_objects_on_one_line(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"seq": 0}\n{"a":1},{"b":2}\n')
    with pytest.raises(ValueError, match=r"t\.jsonl:2: not valid JSON: Extra"):
        list(iter_events(path))


def test_corrupt_line_inside_a_flush_block_reports_its_line(tmp_path):
    path = tmp_path / "t.jsonl"
    with streaming_recording(path):
        for n in range(trace.FLUSH_EVERY + 100):
            _EV_ENC.emit(t=n * 1e-3, n=n)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2049] = lines[2049][:25] + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        list(iter_events(path))
    assert str(err.value).startswith(f"{path}:2050: not valid JSON: ")
    assert _outcome(iter_events, path) == _outcome(_reference_iter_events, path)


def test_reader_equals_json_loads_on_an_obs_pipeline_trace(tmp_path):
    # One small cross-layer session through the runner, as the benchmark's
    # observability workload records it.
    spec = RunSpec.make(
        "policy_comparison", seed=3, stack="heuristic", loss=0.05,
        num_users=2, duration_s=0.5,
    )
    path = tmp_path / "trace.jsonl"
    with streaming_recording(path) as recorder:
        run_specs([spec], cache=None)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == recorder.recorded > 100
    assert list(iter_events(path)) == [json.loads(line) for line in lines]
