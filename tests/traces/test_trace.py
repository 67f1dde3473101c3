"""Trace container tests."""

import numpy as np
import pytest

from repro.geometry import Quaternion
from repro.traces import Device, Trace


def make_trace(n=30, rate=30.0, speed=1.0):
    t = np.arange(n) / rate
    pos = np.stack([speed * t, np.zeros(n), np.full(n, 1.6)], axis=1)
    ori = np.tile(Quaternion.identity().as_array(), (n, 1))
    return Trace(
        user_id=3,
        device=Device.PHONE,
        times=t,
        positions=pos,
        orientations=ori,
        rate_hz=rate,
    )


def test_validation_rejects_misaligned_arrays():
    t = np.arange(5) / 30.0
    with pytest.raises(ValueError):
        Trace(0, Device.PHONE, t, np.zeros((4, 3)), np.zeros((5, 4)))
    with pytest.raises(ValueError):
        Trace(0, Device.PHONE, t, np.zeros((5, 3)), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        Trace(0, Device.PHONE, np.empty(0), np.zeros((0, 3)), np.zeros((0, 4)))


def test_validation_rejects_zero_quaternion():
    t = np.arange(3) / 30.0
    ori = np.zeros((3, 4))
    with pytest.raises(ValueError):
        Trace(0, Device.PHONE, t, np.zeros((3, 3)), ori)


def test_quaternions_normalized_on_load():
    t = np.arange(2) / 30.0
    ori = np.array([[2.0, 0, 0, 0], [0, 2.0, 0, 0]])
    tr = Trace(0, Device.HEADSET, t, np.zeros((2, 3)), ori)
    assert np.allclose(np.linalg.norm(tr.orientations, axis=1), 1.0)


def test_device_accepts_string_value():
    t = np.arange(2) / 30.0
    tr = Trace(0, "PH", t, np.zeros((2, 3)), np.tile([1.0, 0, 0, 0], (2, 1)))
    assert tr.device is Device.PHONE


def test_len_and_duration():
    tr = make_trace(n=31)
    assert len(tr) == 31
    assert tr.duration == pytest.approx(1.0)


def test_pose_negative_index():
    tr = make_trace()
    assert tr.pose(-1).t == pytest.approx(tr.times[-1])


def test_pose_at_interpolates():
    tr = make_trace(speed=3.0)
    p = tr.pose_at(0.5)
    assert p.position[0] == pytest.approx(1.5, abs=1e-9)


def test_pose_at_clamps_ends():
    tr = make_trace()
    assert np.allclose(tr.pose_at(-5.0).position, tr.positions[0])
    assert np.allclose(tr.pose_at(99.0).position, tr.positions[-1])


def test_index_at():
    tr = make_trace()
    assert tr.index_at(0.0) == 0
    assert tr.index_at(0.5) == 15
    assert tr.index_at(100.0) == len(tr) - 1
    assert tr.index_at(-1.0) == 0


def test_window_clamps_at_start():
    tr = make_trace()
    w = tr.window(2, 10)
    assert len(w) == 3
    assert w.times[-1] == pytest.approx(tr.times[2])


def test_window_length():
    tr = make_trace()
    w = tr.window(20, 10)
    assert len(w) == 10
    assert w.times[-1] == pytest.approx(tr.times[20])
    assert w.user_id == tr.user_id


def test_velocities_and_mean_speed():
    tr = make_trace(speed=2.0)
    v = tr.velocities()
    assert v.shape == (len(tr), 3)
    assert np.linalg.norm(v, axis=1).mean() == pytest.approx(2.0, rel=1e-6)


def test_single_sample_velocity_is_zero():
    t = np.array([0.0])
    tr = Trace(
        0, Device.PHONE, t, np.zeros((1, 3)), np.array([[1.0, 0, 0, 0]])
    )
    assert np.allclose(tr.velocities(), 0.0)


def test_position_spread():
    tr = make_trace(speed=0.0)
    assert tr.position_spread() == pytest.approx(0.0)
    tr2 = make_trace(speed=1.0)
    assert tr2.position_spread() > 0.0
