"""PointCloudFrame container tests."""

import numpy as np
import pytest

from repro.pointcloud import PointCloudFrame


def frame(n=10, nominal=0):
    rng = np.random.default_rng(0)
    return PointCloudFrame(rng.uniform(0, 1, size=(n, 3)), nominal_points=nominal)


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PointCloudFrame(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        PointCloudFrame(np.zeros((0, 3)))


def test_nominal_defaults_to_sample_count():
    f = frame(n=7)
    assert f.nominal_points == 7
    assert f.scale_factor == pytest.approx(1.0)


def test_nominal_scaling():
    f = frame(n=10, nominal=1000)
    assert f.scale_factor == pytest.approx(100.0)


def test_nominal_below_sample_count_rejected():
    with pytest.raises(ValueError):
        frame(n=10, nominal=5)


def test_bounds_are_tight():
    pts = np.array([[0, 0, 0], [1, 2, 3]], dtype=float)
    f = PointCloudFrame(pts)
    assert np.allclose(f.bounds.lo, [0, 0, 0])
    assert np.allclose(f.bounds.hi, [1, 2, 3])


def test_transformed_shifts_points_and_keeps_nominal():
    f = frame(n=10, nominal=500)
    g = f.transformed(np.array([1.0, 0, 0]))
    assert np.allclose(g.points, f.points + [1, 0, 0])
    assert g.nominal_points == 500
