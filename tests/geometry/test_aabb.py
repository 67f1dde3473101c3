"""Unit and property tests for axis-aligned bounding boxes."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import AABB

coords = st.floats(min_value=-50, max_value=50, allow_nan=False)


def box(lo=(0, 0, 0), hi=(1, 1, 1)):
    return AABB(np.array(lo, dtype=float), np.array(hi, dtype=float))


def test_rejects_inverted_corners():
    with pytest.raises(ValueError):
        AABB(np.array([1.0, 0, 0]), np.array([0.0, 1, 1]))


def test_rejects_wrong_shape():
    with pytest.raises(ValueError):
        AABB(np.zeros(2), np.ones(2))


def test_of_points_is_tight():
    pts = np.array([[0, 0, 0], [2, 3, 1], [1, -1, 0.5]], dtype=float)
    b = AABB.of_points(pts)
    assert np.allclose(b.lo, [0, -1, 0])
    assert np.allclose(b.hi, [2, 3, 1])


def test_of_points_rejects_empty():
    with pytest.raises(ValueError):
        AABB.of_points(np.empty((0, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_of_points_rejects_non_finite(bad):
    pts = np.zeros((5, 3))
    pts[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        AABB.of_points(pts)


def _of_points_inputs(seed):
    """Random, Fortran-order, strided-view, single-point and signed-zero sets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 3000))
    plain = rng.normal(scale=10.0, size=(n, 3))
    zeros = rng.choice([0.0, -0.0], size=(n, 3))
    return [
        plain,
        np.asfortranarray(plain),
        rng.normal(size=(2 * n, 7))[::2, ::3],
        plain[seed % n : seed % n + 1],
        zeros,
        np.asfortranarray(zeros),
        rng.choice([0.0, -0.0, 1.5, -2.5], size=(n, 3)),
        np.abs(plain) * rng.choice([0.0, 1.0], size=(n, 3)),
        -np.abs(plain) * rng.choice([0.0, 1.0], size=(n, 3)),
    ]


@pytest.mark.parametrize("seed", range(40))
def test_of_points_is_bitwise_min_max(seed):
    for pts in _of_points_inputs(seed):
        b = AABB.of_points(pts)
        assert b.lo.tobytes() == pts.min(axis=0).tobytes()
        assert b.hi.tobytes() == pts.max(axis=0).tobytes()


def test_center_size_volume():
    b = box(hi=(2, 4, 6))
    assert np.allclose(b.center, [1, 2, 3])
    assert np.allclose(b.size, [2, 4, 6])
    assert b.volume == pytest.approx(48.0)


def test_corners_count_and_extremes():
    b = box()
    c = b.corners()
    assert c.shape == (8, 3)
    assert np.allclose(c.min(axis=0), b.lo)
    assert np.allclose(c.max(axis=0), b.hi)


def test_contains_boundary_inclusive():
    b = box()
    assert b.contains(np.array([0.0, 0, 0]))
    assert b.contains(np.array([1.0, 1, 1]))
    assert not b.contains(np.array([1.0001, 0.5, 0.5]))


def test_contains_points_mask():
    b = box()
    pts = np.array([[0.5, 0.5, 0.5], [2, 2, 2]], dtype=float)
    assert b.contains_points(pts).tolist() == [True, False]


def test_intersects_touching_boxes():
    a = box()
    b = box(lo=(1, 0, 0), hi=(2, 1, 1))
    assert a.intersects(b)  # shared face counts
    c = box(lo=(1.01, 0, 0), hi=(2, 1, 1))
    assert not a.intersects(c)


def test_union_covers_both():
    a = box()
    b = box(lo=(2, 2, 2), hi=(3, 3, 3))
    u = a.union(b)
    assert u.contains(np.array([0.0, 0, 0]))
    assert u.contains(np.array([3.0, 3, 3]))


def test_expanded_grows_and_shrinks():
    b = box().expanded(0.5)
    assert np.allclose(b.lo, [-0.5] * 3)
    with pytest.raises(ValueError):
        box().expanded(-1.0)


@given(coords, coords, coords, coords, coords, coords)
def test_of_points_contains_all_points(x1, y1, z1, x2, y2, z2):
    pts = np.array([[x1, y1, z1], [x2, y2, z2]])
    b = AABB.of_points(pts)
    assert b.contains_points(pts).all()


@given(coords, coords, coords)
def test_union_is_commutative(x, y, z):
    a = box()
    lo = np.minimum([x, y, z], [x + 1, y + 2, z + 3])
    hi = np.maximum([x, y, z], [x + 1, y + 2, z + 3])
    b = AABB(lo, hi)
    u1, u2 = a.union(b), b.union(a)
    assert np.allclose(u1.lo, u2.lo) and np.allclose(u1.hi, u2.hi)
