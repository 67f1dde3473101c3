"""Streaming aggregation: exact sums, shuffle/merge invariance, identity."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.cli import main as trace_main
from repro.obs.stream import (
    AnalyzeAccumulator,
    ExactSum,
    LatencyHistogram,
    iter_events,
    stream_analyze,
)
from repro.obs.trace import recording
from repro.runner import get_experiment, resolve_params

floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


# -- ExactSum ---------------------------------------------------------------


@given(st.lists(floats, max_size=50), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_exactsum_matches_fsum_under_any_order(values, rng):
    acc = ExactSum()
    shuffled = list(values)
    rng.shuffle(shuffled)
    for x in shuffled:
        acc.add(x)
    assert acc.value() == math.fsum(values)


@given(st.lists(floats, max_size=40), st.integers(min_value=0, max_value=40))
@settings(max_examples=100, deadline=None)
def test_exactsum_merge_equals_single_pass(values, cut):
    cut = min(cut, len(values))
    left, right = ExactSum(), ExactSum()
    for x in values[:cut]:
        left.add(x)
    for x in values[cut:]:
        right.add(x)
    left.merge(right)
    assert left.value() == math.fsum(values)


def test_exactsum_beats_naive_accumulation():
    # The motivating case: a naive += drifts, the exact sum does not.
    values = [1e16, 1.0, -1e16] * 11
    naive = 0.0
    acc = ExactSum()
    for x in values:
        naive += x
        acc.add(x)
    assert acc.value() == math.fsum(values) == 11.0
    assert naive != 11.0


# -- LatencyHistogram (satellite: hypothesis shuffle-invariance) ------------


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False), max_size=60
    ),
    st.integers(min_value=0, max_value=60),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_histogram_merge_is_shuffle_invariant(samples, cut, rng):
    # An accumulator pair fed a shuffled split finalizes bit-identically
    # to one accumulator fed the original order.
    reference = LatencyHistogram()
    for x in samples:
        reference.observe(x)

    shuffled = list(samples)
    rng.shuffle(shuffled)
    cut = min(cut, len(shuffled))
    left, right = LatencyHistogram(), LatencyHistogram()
    for x in shuffled[:cut]:
        left.observe(x)
    for x in shuffled[cut:]:
        right.observe(x)
    left.merge(right)

    assert json.dumps(left.to_jsonable(), sort_keys=True) == json.dumps(
        reference.to_jsonable(), sort_keys=True
    )


def test_histogram_rejects_mismatched_edges():
    with pytest.raises(ValueError, match="different edges"):
        LatencyHistogram().merge(LatencyHistogram(edges=(0.1, 0.2)))


def test_histogram_rejects_unsorted_edges():
    with pytest.raises(ValueError, match="strictly increase"):
        LatencyHistogram(edges=(0.2, 0.1))


# -- memory sink == file sink (the acceptance criterion) ---------------------


def _load_events(path):
    return list(iter_events(path))


def _trace(tmp_path_factory, experiment, label):
    out = tmp_path_factory.mktemp(label) / f"{experiment}-trace.jsonl"
    assert (
        trace_main(
            [experiment, "--scale", "small", "--out", str(out), "--quiet"]
        )
        == 0
    )
    return out


@pytest.fixture(scope="module")
def loss_sweep_trace(tmp_path_factory):
    return _trace(tmp_path_factory, "loss_sweep", "stream-ls")


@pytest.fixture(scope="module")
def venue_trace(tmp_path_factory):
    return _trace(tmp_path_factory, "venue_scale", "stream-vs")


def _memory_sink_report(name):
    """Record ``name`` the way ``repro trace`` does, into the in-memory
    sink, and fold the retained events."""
    experiment = get_experiment(name)
    params = resolve_params(experiment, scale="small")
    with recording() as recorder:
        for spec in experiment.decompose(params):
            recorder.clear_context()
            recorder.set_context(unit=spec.key())
            experiment.run_one(spec)
    acc = AnalyzeAccumulator()
    for ev in recorder.events:
        acc.add_event(ev.to_jsonable())
    return acc.finalize()


@pytest.mark.parametrize(
    "fixture, name",
    [("loss_sweep_trace", "loss_sweep"), ("venue_trace", "venue_scale")],
    ids=["loss_sweep_trace", "venue_trace"],
)
def test_stream_analyze_byte_identical_to_batch(fixture, name, request):
    # The file the trace CLI streamed folds into exactly the report the
    # in-memory sink's events do: the JSON round trip loses nothing.
    path = request.getfixturevalue(fixture)
    batch = json.dumps(
        _memory_sink_report(name), sort_keys=True, separators=(",", ":")
    )
    streamed = json.dumps(
        stream_analyze(path), sort_keys=True, separators=(",", ":")
    )
    assert batch == streamed


def test_unit_split_merge_equals_single_pass(loss_sweep_trace):
    # Split the timeline by unit (the shard boundary), fold each slice
    # into its own accumulator, merge in spec order: bit-identical to one
    # accumulator over the full stream.
    events = _load_events(loss_sweep_trace)
    units = list(dict.fromkeys(ev["unit"] for ev in events if "unit" in ev))
    assert len(units) >= 2

    single = AnalyzeAccumulator()
    for ev in events:
        single.add_event(ev)

    merged = AnalyzeAccumulator()
    for unit in units:
        shard = AnalyzeAccumulator()
        for ev in events:
            if ev.get("unit") == unit:
                shard.add_event(ev)
        merged.merge(shard)
    for ev in events:
        if "unit" not in ev:
            merged.add_event(ev)

    assert json.dumps(merged.finalize(), sort_keys=True) == json.dumps(
        single.finalize(), sort_keys=True
    )


def test_unit_shuffle_does_not_change_numeric_totals(loss_sweep_trace):
    # Merging unit slices in a different order must not move any float:
    # the exact sums make every total order-invariant (worst-frame order
    # and tie-breaks are deterministic, so the whole report matches).
    events = _load_events(loss_sweep_trace)
    units = list(dict.fromkeys(ev["unit"] for ev in events if "unit" in ev))
    shuffled = list(units)
    random.Random(7).shuffle(shuffled)
    assert shuffled != units

    def _merged(order):
        acc = AnalyzeAccumulator()
        for unit in order:
            shard = AnalyzeAccumulator()
            for ev in events:
                if ev.get("unit") == unit:
                    shard.add_event(ev)
            acc.merge(shard)
        return acc.finalize()

    assert json.dumps(_merged(shuffled), sort_keys=True) == json.dumps(
        _merged(units), sort_keys=True
    )


def test_merge_rejects_overlapping_unit_frames():
    ev = {
        "t": 0.0, "seq": 0, "layer": "net", "event": "net.frame_outcome",
        "unit": "u", "frame": 0, "airtime_s": 0.01,
        "delivered_users": [0], "lost_users": [],
    }
    a, b = AnalyzeAccumulator(), AnalyzeAccumulator()
    a.add_event(ev)
    b.add_event(dict(ev))
    with pytest.raises(ValueError, match="unit-disjoint"):
        a.merge(b)


def test_merge_rejects_differing_top():
    with pytest.raises(ValueError, match="different top"):
        AnalyzeAccumulator(top=5).merge(AnalyzeAccumulator(top=3))


def test_open_group_state_stays_bounded(loss_sweep_trace):
    # The whole point of streaming: after the fold, no per-frame state
    # survives beyond the occurrence counters and top-K entries.
    acc = AnalyzeAccumulator(top=5)
    max_open = 0
    for ev in _load_events(loss_sweep_trace):
        acc.add_event(ev)
        max_open = max(max_open, len(acc._open))
    assert max_open <= 2, "frames should close as soon as their outcome lands"
    assert len(acc._open) == 0
    assert len(acc._worst) <= 5


def test_stream_analyze_accepts_multiple_paths(loss_sweep_trace, venue_trace):
    combined = stream_analyze([loss_sweep_trace, venue_trace])
    parts = [stream_analyze(loss_sweep_trace), stream_analyze(venue_trace)]
    assert combined["num_events"] == sum(p["num_events"] for p in parts)
    assert combined["frames"]["total"] == sum(
        p["frames"]["total"] for p in parts
    )
