"""Behaviour model tests — the regularities Fig. 2 depends on."""

import numpy as np
import pytest

from repro.traces import (
    AttentionModel,
    BehaviorParams,
    Device,
    device_profile,
    generate_trace,
)
from repro.traces.behavior import with_anchor


def test_attention_azimuth_is_bounded_sinusoid():
    a = AttentionModel(amplitude_rad=0.4, period_s=10.0)
    t = np.linspace(0, 20, 200)
    az = np.asarray(a.azimuth(t))
    assert np.max(np.abs(az)) <= 0.4 + 1e-9
    assert az[0] == pytest.approx(az[-1], abs=1e-6)  # periodic


def test_generate_trace_shape_and_rate():
    tr = generate_trace(0, Device.HEADSET, duration_s=2.0, rate_hz=30.0, seed=1)
    assert len(tr) == 60
    assert tr.rate_hz == 30.0
    assert tr.device is Device.HEADSET


def test_generate_trace_rejects_bad_duration():
    with pytest.raises(ValueError):
        generate_trace(0, Device.PHONE, duration_s=0.0)


# (duration_s, rate_hz, the argument the error must name); rate 0, a NaN
# duration and an infinite one used to raise ZeroDivisionError, a NaN-to-int
# conversion error and OverflowError.
BAD_SAMPLING = [
    (1.0, 0.0, "rate_hz"),
    (float("nan"), 30.0, "duration_s"),
    (float("inf"), 30.0, "duration_s"),
    (-2.0, 30.0, "duration_s"),
    (1.0, -30.0, "rate_hz"),
    (1.0, float("nan"), "rate_hz"),
    (1.0, float("inf"), "rate_hz"),
]


@pytest.mark.parametrize("duration_s,rate_hz,name", BAD_SAMPLING)
def test_generate_trace_names_bad_sampling_argument(duration_s, rate_hz, name):
    with pytest.raises(ValueError, match=name):
        generate_trace(0, Device.HEADSET, duration_s=duration_s, rate_hz=rate_hz)


def test_determinism_per_seed_and_user():
    a = generate_trace(1, Device.PHONE, duration_s=1.0, seed=5)
    b = generate_trace(1, Device.PHONE, duration_s=1.0, seed=5)
    c = generate_trace(2, Device.PHONE, duration_s=1.0, seed=5)
    assert np.allclose(a.positions, b.positions)
    assert not np.allclose(a.positions, c.positions)


def test_user_orbits_content_center():
    center = np.array([4.0, 5.0, 0.0])
    tr = generate_trace(
        0, Device.PHONE, duration_s=3.0, seed=2, content_center=center
    )
    dist = np.linalg.norm(tr.positions[:, :2] - center[:2], axis=1)
    assert np.all(dist > 0.5)
    assert np.all(dist < 4.0)


def test_user_looks_at_content():
    tr = generate_trace(0, Device.PHONE, duration_s=2.0, seed=3)
    # The forward direction should point roughly toward the origin.
    for i in range(0, len(tr), 10):
        pose = tr.pose(i)
        to_content = -pose.position
        to_content /= np.linalg.norm(to_content)
        fwd = pose.orientation.forward()
        assert float(np.dot(fwd, to_content)) > 0.7


def test_headsets_roam_more_than_phones():
    hm_spread = np.mean(
        [
            generate_trace(u, Device.HEADSET, 6.0, seed=9).position_spread()
            for u in range(6)
        ]
    )
    ph_spread = np.mean(
        [
            generate_trace(u, Device.PHONE, 6.0, seed=9).position_spread()
            for u in range(6)
        ]
    )
    assert hm_spread > ph_spread


def test_motion_is_smooth():
    tr = generate_trace(0, Device.HEADSET, duration_s=3.0, seed=4)
    step = np.linalg.norm(np.diff(tr.positions, axis=0), axis=1)
    # No teleporting: per-sample displacement bounded (30 Hz).
    assert step.max() < 0.15


def test_anchor_decays_toward_attention():
    params = with_anchor(
        BehaviorParams(azimuth_wander_rad=0.0, ou_sigma_m=0.0, gaze_noise_rad=0.0),
        anchor_azimuth_rad=2.5,
        convergence_rate=0.5,
    )
    tr = generate_trace(
        0, Device.PHONE, duration_s=20.0, params=params,
        attention=AttentionModel(amplitude_rad=0.0), seed=0,
    )
    az_start = np.arctan2(tr.positions[0, 1], tr.positions[0, 0])
    az_end = np.arctan2(tr.positions[-1, 1], tr.positions[-1, 0])
    assert abs(az_end) < abs(az_start)
    assert abs(az_end) < 0.1


def test_device_profile_ranges():
    rng = np.random.default_rng(0)
    hm = device_profile(Device.HEADSET, rng)
    ph = device_profile(Device.PHONE, rng)
    assert hm.azimuth_wander_rad > ph.azimuth_wander_rad
    assert hm.ou_sigma_m > ph.ou_sigma_m
