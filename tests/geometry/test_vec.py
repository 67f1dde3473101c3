"""Unit and property tests for vector helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    azimuth_elevation,
    cross,
    distance,
    dot,
    from_azimuth_elevation,
    norm,
    normalize,
)

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def test_norm_of_unit_axes():
    assert norm(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert norm(np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0)


def test_normalize_unit_length():
    v = normalize(np.array([3.0, 4.0, 0.0]))
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_normalize_zero_vector_passthrough():
    v = normalize(np.array([0.0, 0.0, 0.0]))
    assert np.allclose(v, 0.0)


def test_normalize_stack():
    vs = normalize(np.array([[2.0, 0, 0], [0, 0, 5.0]]))
    assert np.allclose(np.linalg.norm(vs, axis=1), 1.0)


def test_dot_orthogonal():
    x, y, _ = np.eye(3)
    assert dot(x, y) == pytest.approx(0.0)


def test_cross_right_handed():
    x, y, z = np.eye(3)
    assert np.allclose(cross(x, y), z)


def test_distance_symmetric():
    a, b = np.array([1.0, 2.0, 3.0]), np.array([4.0, 6.0, 3.0])
    assert distance(a, b) == pytest.approx(5.0)
    assert distance(b, a) == pytest.approx(distance(a, b))


def test_azimuth_elevation_axes():
    az, el = azimuth_elevation(np.array([1.0, 0.0, 0.0]))
    assert az == pytest.approx(0.0)
    assert el == pytest.approx(0.0)
    az, el = azimuth_elevation(np.array([0.0, 1.0, 0.0]))
    assert az == pytest.approx(np.pi / 2)
    az, el = azimuth_elevation(np.array([0.0, 0.0, 1.0]))
    assert el == pytest.approx(np.pi / 2)


@given(finite, finite, finite)
def test_azimuth_elevation_roundtrip(x, y, z):
    v = np.array([x, y, z])
    if np.linalg.norm(v) < 1e-6:
        return
    az, el = azimuth_elevation(v)
    back = from_azimuth_elevation(az, el)
    assert np.allclose(back, normalize(v), atol=1e-9)


@given(finite, finite, finite)
def test_normalize_is_idempotent(x, y, z):
    v = np.array([x, y, z])
    if np.linalg.norm(v) < 1e-6:
        return
    once = normalize(v)
    twice = normalize(once)
    assert np.allclose(once, twice, atol=1e-12)
