"""Segment/cylinder intersection and mirror-plane tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import Plane, Segment, VerticalCylinder, mirror_point


def test_segment_length_and_direction():
    s = Segment(np.zeros(3), np.array([3.0, 4.0, 0.0]))
    assert s.length == pytest.approx(5.0)
    assert np.allclose(s.direction, [0.6, 0.8, 0.0])


def cylinder(x=0.0, y=0.0, r=0.5, h=2.0):
    return VerticalCylinder(center_xy=np.array([x, y]), radius=r, height=h)


def test_cylinder_validation():
    with pytest.raises(ValueError):
        VerticalCylinder(center_xy=np.zeros(3), radius=0.5, height=1.0)
    with pytest.raises(ValueError):
        cylinder(r=-1.0)
    with pytest.raises(ValueError):
        cylinder(h=0.0)


def test_segment_through_center_blocks():
    c = cylinder()
    s = Segment(np.array([-2.0, 0, 1.0]), np.array([2.0, 0, 1.0]))
    assert c.blocks(s)
    t0, t1 = c.intersection_interval(s)
    assert (t1 - t0) * s.length == pytest.approx(1.0, abs=1e-9)


def test_segment_missing_laterally():
    c = cylinder()
    s = Segment(np.array([-2.0, 1.0, 1.0]), np.array([2.0, 1.0, 1.0]))
    assert not c.blocks(s)
    assert c.intersection_interval(s) is None


def test_segment_above_cylinder_misses():
    c = cylinder(h=1.5)
    s = Segment(np.array([-2.0, 0, 1.8]), np.array([2.0, 0, 1.8]))
    assert not c.blocks(s)


def test_segment_descending_through_top():
    c = cylinder(h=1.5)
    s = Segment(np.array([-2.0, 0, 3.0]), np.array([2.0, 0, 0.5]))
    assert c.blocks(s)


def test_segment_ending_before_cylinder():
    c = cylinder(x=5.0)
    s = Segment(np.array([0.0, 0, 1.0]), np.array([2.0, 0, 1.0]))
    assert not c.blocks(s)


def test_vertical_segment_inside():
    c = cylinder()
    s = Segment(np.array([0.1, 0.1, 0.2]), np.array([0.1, 0.1, 1.8]))
    assert c.blocks(s)


def test_vertical_segment_outside():
    c = cylinder()
    s = Segment(np.array([2.0, 0, 0.2]), np.array([2.0, 0, 1.8]))
    assert not c.blocks(s)


def test_tangent_segment_does_not_block():
    c = cylinder(r=0.5)
    s = Segment(np.array([-2.0, 0.5000001, 1.0]), np.array([2.0, 0.5000001, 1.0]))
    assert not c.blocks(s)


@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0.1, max_value=1.9),
)
def test_chord_never_exceeds_diameter_for_horizontal_rays(y, x0, z):
    c = cylinder(r=0.5)
    s = Segment(np.array([x0 - 10.0, y, z]), np.array([x0 + 10.0, y, z]))
    interval = c.intersection_interval(s)
    if interval is not None:
        t0, t1 = interval
        assert (t1 - t0) * s.length <= 2 * c.radius + 1e-9


def test_plane_signed_distance():
    p = Plane(np.array([0.0, 0, 1.0]), 2.0)
    assert p.signed_distance(np.array([0, 0, 5.0])) == pytest.approx(3.0)
    assert p.signed_distance(np.array([0, 0, 0.0])) == pytest.approx(-2.0)


def test_mirror_point_across_wall():
    p = Plane(np.array([1.0, 0, 0]), 4.0)  # wall at x = 4
    m = mirror_point(np.array([1.0, 2.0, 3.0]), p)
    assert np.allclose(m, [7.0, 2.0, 3.0])


def test_mirror_is_involution():
    p = Plane(np.array([0.3, 0.4, 0.5]), 1.0)
    pt = np.array([2.0, -1.0, 0.5])
    assert np.allclose(p.mirror(p.mirror(pt)), pt, atol=1e-12)


def test_mirror_preserves_distance_to_plane():
    p = Plane(np.array([0.0, 1.0, 0]), 3.0)
    pt = np.array([1.0, 1.0, 1.0])
    m = p.mirror(pt)
    assert p.signed_distance(m) == pytest.approx(-p.signed_distance(pt))
