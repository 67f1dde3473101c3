"""Trace analytics tests."""

import numpy as np
import pytest

from repro.traces import (
    Device,
    generate_user_study,
    study_statistics,
    trace_statistics,
)


@pytest.fixture(scope="module")
def study():
    return generate_user_study(num_users=8, duration_s=5.0, seed=6)


def test_trace_statistics_fields(study):
    stats = trace_statistics(study.traces[0])
    assert stats.user_id == 0
    assert stats.duration_s == pytest.approx(study.traces[0].duration)
    assert stats.mean_speed_mps >= 0
    assert stats.p95_speed_mps >= stats.mean_speed_mps
    assert stats.position_spread_m >= 0
    assert stats.mean_angular_speed_dps >= 0
    assert stats.mean_viewing_distance_m > 0.5


def test_angular_speed_is_plausible(study):
    """Correlated gaze noise: heads turn tens of deg/s, not hundreds."""
    for trace in study.traces:
        stats = trace_statistics(trace)
        assert stats.mean_angular_speed_dps < 100.0


def test_study_statistics_devices(study):
    stats = study_statistics(study)
    assert set(stats) == {Device.PHONE, Device.HEADSET}
    assert stats[Device.PHONE]["users"] == 4.0
    assert stats[Device.HEADSET]["users"] == 4.0


def test_headsets_move_more_in_aggregate(study):
    stats = study_statistics(study)
    assert (
        stats[Device.HEADSET]["position_spread_m"]
        > stats[Device.PHONE]["position_spread_m"]
    )
    assert (
        stats[Device.HEADSET]["mean_speed_mps"]
        > stats[Device.PHONE]["mean_speed_mps"]
    )


def test_content_center_shifts_distance(study):
    near = trace_statistics(study.traces[0])
    far = trace_statistics(
        study.traces[0], content_center=np.array([10.0, 0.0, 0.0])
    )
    assert far.mean_viewing_distance_m > near.mean_viewing_distance_m
