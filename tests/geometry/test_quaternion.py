"""Unit and property tests for quaternions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import Quaternion

angles = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_identity_rotates_nothing():
    q = Quaternion.identity()
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(q.rotate(v), v)


def test_from_euler_yaw_only():
    q = Quaternion.from_euler(np.pi / 2, 0, 0)
    fwd = q.forward()
    assert np.allclose(fwd, [0, 1, 0], atol=1e-12)


def test_from_euler_pitch_down_looks_down():
    # Positive pitch in our convention rotates the forward axis downward.
    q = Quaternion.from_euler(0, np.pi / 4, 0)
    fwd = q.forward()
    assert fwd[2] == pytest.approx(-np.sin(np.pi / 4))


@given(angles, st.floats(min_value=-1.4, max_value=1.4), angles)
def test_euler_roundtrip(yaw, pitch, roll):
    q = Quaternion.from_euler(yaw, pitch, roll)
    y2, p2, r2 = q.to_euler()
    q2 = Quaternion.from_euler(y2, p2, r2)
    # Compare rotations, not raw angles (multiple Euler triples per rotation).
    assert q.angle_to(q2) < 1e-7


@given(angles, angles, angles)
def test_rotation_preserves_length(yaw, pitch, roll):
    q = Quaternion.from_euler(yaw, pitch, roll)
    v = np.array([1.0, -2.0, 0.5])
    assert np.linalg.norm(q.rotate(v)) == pytest.approx(np.linalg.norm(v))


def test_multiplication_composes():
    qa = Quaternion.from_euler(0.3, 0, 0)
    qb = Quaternion.from_euler(0.4, 0, 0)
    v = np.array([1.0, 0, 0])
    assert np.allclose((qa * qb).rotate(v), qa.rotate(qb.rotate(v)), atol=1e-12)


def test_conjugate_inverts_unit_quaternion():
    q = Quaternion.from_euler(0.5, 0.2, -0.1)
    v = np.array([0.3, 1.0, -2.0])
    assert np.allclose(q.conjugate().rotate(q.rotate(v)), v, atol=1e-12)


def test_normalized_restores_unit_norm():
    q = Quaternion(2.0, 0.0, 0.0, 0.0).normalized()
    assert q.norm() == pytest.approx(1.0)
    assert q == Quaternion.identity()


def test_look_at_points_forward_axis():
    target = np.array([1.0, 1.0, 0.0])
    q = Quaternion.look_at(target)
    assert np.allclose(q.forward(), target / np.linalg.norm(target), atol=1e-9)


def test_look_at_up_direction():
    q = Quaternion.look_at(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(q.up(), [0, 0, 1], atol=1e-9)


def test_angle_to_self_is_zero():
    q = Quaternion.from_euler(0.7, 0.1, 0.3)
    assert q.angle_to(q) == pytest.approx(0.0, abs=1e-6)


def test_angle_to_is_rotation_angle():
    qa = Quaternion.identity()
    qb = Quaternion.from_euler(0.8, 0, 0)
    assert qa.angle_to(qb) == pytest.approx(0.8, abs=1e-9)


def test_slerp_endpoints():
    qa = Quaternion.from_euler(0.0, 0, 0)
    qb = Quaternion.from_euler(1.0, 0, 0)
    assert qa.slerp(qb, 0.0).angle_to(qa) < 1e-9
    assert qa.slerp(qb, 1.0).angle_to(qb) < 1e-9


def test_slerp_midpoint_halves_angle():
    qa = Quaternion.identity()
    qb = Quaternion.from_euler(1.0, 0, 0)
    mid = qa.slerp(qb, 0.5)
    assert qa.angle_to(mid) == pytest.approx(0.5, abs=1e-9)


def test_slerp_takes_short_arc():
    qa = Quaternion.from_euler(0.1, 0, 0)
    qb_neg = Quaternion.from_euler(0.3, 0, 0)
    qb_flipped = Quaternion(-qb_neg.w, -qb_neg.x, -qb_neg.y, -qb_neg.z)
    mid = qa.slerp(qb_flipped, 0.5)
    assert qa.angle_to(mid) == pytest.approx(0.1, abs=1e-7)


def test_slerp_nearly_identical_quaternions():
    qa = Quaternion.from_euler(0.5, 0.0, 0.0)
    qb = Quaternion.from_euler(0.5 + 1e-12, 0.0, 0.0)
    mid = qa.slerp(qb, 0.5)
    assert mid.norm() == pytest.approx(1.0)


def test_array_roundtrip():
    q = Quaternion.from_euler(0.2, -0.4, 0.1)
    q2 = Quaternion.from_array(q.as_array())
    assert q.angle_to(q2) < 1e-12
